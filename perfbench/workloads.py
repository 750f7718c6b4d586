"""Seeded request generation, the dict-core oracle, and the answer checks.

Every request body is generated before timing starts.  A workload's pools
of distinct requests are fixed; the seed draws each connection's stream
from them (and the perturbed observations of the writes).  The oracle is an
in-process ``FBoxApp`` over the dict core — the reference implementation —
serving the same scenarios under the same names.  Its answers for a read
workload's pools depend only on the source, so they are computed once per
source digest and kept in ``.perfbench_cache/`` in the checkout.

Answers are compared as bytes.  Two fields are allowed to differ from the
oracle because they describe cache state, not the answer: ``cached``
(top level and inside batch items) and a batch's ``sweep_groups``, which
must equal the number of items that were not cached.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from client import post_bytes

DATASETS = {"taskrabbit": "paper_taskrabbit", "google": "paper_google"}
"""Served name → scenario.  The names hash to different shards of a
2-shard pool, so in ``ingest_mix`` each worker owns one dataset."""

MEASURES = {"taskrabbit": ("emd", "exposure"), "google": ("kendall", "jaccard")}
GROUPS = ("gender=Female", "gender=Male", "ethnicity=White")
DIMENSIONS = ("group", "query", "location")
ORDERS = ("most", "least")
READS = ("quantify", "compare", "batch", "whatif")
TOKEN = "perfbench"


@dataclass
class Req:
    """One pre-generated request and what its answer must be."""

    op: str
    body: bytes
    head: bytes = b""
    expected: bytes | None = None  # normalized oracle answer (None: unchecked)
    stats: tuple = ()  # (sorted, random) accesses of a fresh answer, per item
    payload: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.head = post_bytes("/v1/" + self.op, self.body)


def make_req(op: str, payload: dict) -> Req:
    return Req(op, json.dumps(payload).encode("utf-8"), payload=payload)


def normalize(body: bytes) -> tuple[bytes, list[bool]]:
    """``(body with every "cached" false, the cached flags in order)``."""
    parts = body.split(b'"cached": ')
    flags = [part.startswith(b"true") for part in parts[1:]]
    if any(flags):
        body = body.replace(b'"cached": true', b'"cached": false')
    return body, flags


def batch_prefix(body: bytes) -> tuple[bytes, int]:
    """A batch envelope split at its trailing ``"sweep_groups": N}``."""
    cut = body.rfind(b'"sweep_groups": ')
    return body[:cut], int(body[cut + 16 : -1])


def access_stats(document: dict) -> tuple[int, int]:
    stats = document.get("access_stats") or {}
    return stats.get("sorted_accesses", 0), stats.get("random_accesses", 0)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


class Oracle:
    """The dict-core reference app, driven in-process."""

    def __init__(self) -> None:
        from repro.service.app import Request, make_app
        from repro.service.registry import DatasetRegistry

        self._request = Request
        self.app = make_app(
            registry=DatasetRegistry(core="dict"),
            core="dict",
            max_concurrency=0,
            cache_size=1 << 20,
            request_timeout=None,
        )
        for name, scenario in DATASETS.items():
            self.post("datasets", {"name": name, "scenario": scenario})

    def post(self, op: str, payload: dict) -> bytes:
        response = self.app.handle(
            self._request("POST", "/v1/" + op, json.dumps(payload).encode("utf-8"))
        )
        if response.status != 200:
            raise RuntimeError(f"oracle refused {op} {payload}: {response.body[:300]!r}")
        return response.body

    def fill(self, req: Req) -> Req:
        """Attach the expected answer (and fresh-answer stats) to ``req``."""
        body, _ = normalize(self.post(req.op, req.payload))
        document = json.loads(body)
        if req.op == "batch":
            req.expected = batch_prefix(body)[0]
            req.stats = tuple(access_stats(item["body"]) for item in document["results"])
        else:
            req.expected = body
            req.stats = (access_stats(document),)
        return req

    def dataset(self, name: str):
        return self.app.context.registry.dataset(name)

    def probes(self) -> dict[str, bytes]:
        """Normalized answers to each dataset's set-up probe."""
        return {name: normalize(self.post("quantify", probe(name)))[0] for name in DATASETS}

    def close(self) -> None:
        self.app.close()


def probe(name: str) -> dict:
    """The set-up probe: the first answer asked of each dataset."""
    return {"dataset": name, "dimension": "group", "k": 5}


# ----------------------------------------------------------------------
# Parameter spaces
# ----------------------------------------------------------------------


class Vocabulary:
    """Locations, cells and crawled observations of the served datasets."""

    def __init__(self, locations: dict, cells: dict, observations: dict) -> None:
        self.locations = locations
        self.cells = cells
        self.observations = observations

    @classmethod
    def of(cls, oracle: Oracle) -> "Vocabulary":
        from repro.service.ingest import encode_observation

        locations, cells, observations = {}, {}, {}
        for name in DATASETS:
            crawled = list(oracle.dataset(name).observations())
            locations[name] = sorted({o.location for o in crawled})
            cells[name] = sorted({(o.query, o.location) for o in crawled})
            observations[name] = [encode_observation(o) for o in crawled]
        return cls(locations, cells, observations)

    def pairs(self, name: str) -> list[tuple[str, str]]:
        locations = self.locations[name]
        return [
            (a, b) for i, a in enumerate(locations) for b in locations[i + 1 :]
        ]


def _quantify(name, dimension, order, k, measure=None) -> dict:
    payload = {"dataset": name, "dimension": dimension, "k": k, "order": order}
    if measure is not None:
        payload["measure"] = measure
    return payload


def _compare(name, r1, r2, measure=None) -> dict:
    payload = {
        "dataset": name, "dimension": "location", "r1": r1, "r2": r2,
        "breakdown": "query",
    }
    if measure is not None:
        payload["measure"] = measure
    return payload


def _batch(name, order, ks, measure=None) -> dict:
    return {
        "requests": [
            {"op": "quantify", **_quantify(name, dimension, order, k, measure)}
            for dimension, k in zip(DIMENSIONS, ks)
        ]
    }


def _whatif(group, query, location) -> dict:
    return {
        "dataset": "taskrabbit", "group": group, "query": query,
        "location": location, "intervention": "fair",
    }


def _swap(items: list, rng: Random, swaps: int = 2) -> list:
    for _ in range(swaps):
        index = rng.randrange(len(items) - 1)
        items[index], items[index + 1] = items[index + 1], items[index]
    return items


def perturbed(encoded: dict, rng: Random) -> dict:
    """A fresh crawl of one cell: the base ranking with seeded adjacent swaps."""
    item = dict(encoded)
    if "ranking" in item:
        item["ranking"] = _swap(list(item["ranking"]), rng)
        item.pop("scores", None)
    else:
        item["results_by_user"] = {
            user: _swap(list(ranking), rng)
            for user, ranking in item["results_by_user"].items()
        }
    return item


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    shards: int
    block: dict[str, int]  # op → requests of that op in each block of 20
    pool: dict[str, list[Req]]  # op → distinct requests to draw from
    cap_rps: int  # sizes the pre-generated streams
    warm_all: bool = False  # warm-up sends every distinct request once
    warm_seconds: float = 0.0  # then a closed-loop warm-up this long
    write_cycle: list = field(default_factory=list)  # (dataset, observation)

    def streams(self, seed: int, count: int, per_stream: int) -> list[list[Req]]:
        """``count`` seeded request streams (one per connection).

        The mix is stratified: every block of 20 requests holds exactly
        ``block[op]`` requests of each op, in seeded order, so the share of
        expensive operations does not vary from run to run.  Writes walk
        ``write_cycle`` (each stream from its own offset) with seeded
        swaps, so every run writes the same cells.
        """
        layout = [op for op, n in sorted(self.block.items()) for _ in range(n)]
        streams = []
        for index in range(count):
            rng = Random(seed * 1_000 + index)
            stream: list[Req] = []
            writes = 0
            while len(stream) < per_stream:
                rng.shuffle(layout)
                for op in layout:
                    if op == "observations":
                        offset = index * len(self.write_cycle) // count
                        name, base = self.write_cycle[(offset + writes) % len(self.write_cycle)]
                        stream.append(
                            make_req(
                                "observations",
                                {
                                    "dataset": name,
                                    "observations": [perturbed(base, rng)],
                                    "batch_id": f"pb-{seed}-{index}-{len(stream)}",
                                },
                            )
                        )
                        writes += 1
                    else:
                        stream.append(rng.choice(self.pool[op]))
            streams.append(stream)
        return streams


def hot_read(vocab: Vocabulary) -> Workload:
    """Default measures, a parameter set smaller than the 256-entry cache."""
    rng = Random(0)
    quantify = [
        make_req("quantify", _quantify(name, dimension, order, k))
        for name in DATASETS for dimension in DIMENSIONS for order in ORDERS
        for k in range(1, 9)
    ]
    compare = [
        make_req("compare", _compare(name, *pair))
        for name in DATASETS for pair in rng.sample(vocab.pairs(name), 24)
    ]
    batch = [
        make_req(
            "batch",
            _batch(rng.choice(sorted(DATASETS)), rng.choice(ORDERS),
                   [rng.randint(1, 8) for _ in DIMENSIONS]),
        )
        for _ in range(30)
    ]
    return Workload(
        "hot_read", 0, {"quantify": 12, "compare": 5, "batch": 3},
        {"quantify": quantify, "compare": compare, "batch": batch},
        cap_rps=20_000, warm_all=True,
    )


def cold_read(vocab: Vocabulary) -> Workload:
    """Both measures of each site over a space many times the cache."""
    rng = Random(0)
    quantify = [
        make_req("quantify", _quantify(name, dimension, order, k, measure))
        for name in DATASETS for measure in MEASURES[name]
        for dimension in DIMENSIONS for order in ORDERS for k in range(1, 11)
    ]
    compare = []
    for name in DATASETS:
        for measure in MEASURES[name]:
            for pair in vocab.pairs(name):
                r1, r2 = pair if rng.random() < 0.5 else pair[::-1]
                compare.append(make_req("compare", _compare(name, r1, r2, measure)))
    batch = []
    for _ in range(300):
        name = rng.choice(sorted(DATASETS))
        batch.append(
            make_req(
                "batch",
                _batch(name, rng.choice(ORDERS), [rng.randint(1, 10) for _ in DIMENSIONS],
                       rng.choice(MEASURES[name])),
            )
        )
    whatif = [
        make_req("whatif", _whatif(group, *cell))
        for group in GROUPS for cell in vocab.cells["taskrabbit"]
    ]
    return Workload(
        "cold_read", 0, {"quantify": 8, "compare": 5, "batch": 3, "whatif": 4},
        {"quantify": quantify, "compare": compare, "batch": batch, "whatif": whatif},
        cap_rps=5_000, warm_seconds=2.0,
    )


def ingest_mix(vocab: Vocabulary) -> Workload:
    """The loadgen default mix with writes, against a 2-shard server."""
    rng = Random(0)
    quantify = [
        make_req("quantify", _quantify(name, dimension, "most", k))
        for name in DATASETS for dimension in DIMENSIONS for k in range(1, 6)
    ]
    compare = [
        make_req("compare", _compare(name, *pair))
        for name in DATASETS for pair in vocab.pairs(name)
    ]
    batch = [
        make_req("batch", _batch(name, "most", ks))
        for name in DATASETS
        for ks in sorted({tuple(rng.randint(1, 5) for _ in DIMENSIONS) for _ in range(40)})
    ]
    whatif = [
        make_req("whatif", _whatif(group, *cell))
        for group in GROUPS for cell in vocab.cells["taskrabbit"]
    ]
    # Writes re-crawl a fixed cycle of 12 TaskRabbit cells: the crawled
    # marketplace, as in the loadgen.  The Google shard stays read-only, as
    # the control beside the written one; a Google write (about 200 ms, an
    # all-user-pairs recompute) would turn the workload into a benchmark of
    # that one path, and belongs in a workload of its own.
    cycle = [("taskrabbit", base) for base in rng.sample(vocab.observations["taskrabbit"], 12)]
    return Workload(
        "ingest_mix", 2,
        {"quantify": 9, "compare": 4, "batch": 3, "whatif": 2, "observations": 2},
        {"quantify": quantify, "compare": compare, "batch": batch, "whatif": whatif},
        cap_rps=2_000, warm_seconds=2.0, write_cycle=cycle,
    )


WORKLOADS = {"hot_read": hot_read, "cold_read": cold_read, "ingest_mix": ingest_mix}


def source_digest(root: Path) -> str:
    """The program's sources plus this file, which defines the pools."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + [Path(__file__).resolve()]:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def reference(name: str, root: Path, digest: str):
    """``(vocabulary, workload with expected answers, probe answers)`` of a
    read workload, from the cache when the source digest matches."""
    path = root / ".perfbench_cache" / f"{name}-{digest}.json"
    try:
        cached = json.loads(path.read_text())
    except (OSError, ValueError):
        cached = None
    if cached is not None:
        vocab = Vocabulary(
            cached["locations"],
            {key: [tuple(cell) for cell in cells] for key, cells in cached["cells"].items()},
            {},
        )
        workload = WORKLOADS[name](vocab)
        answers = cached["answers"]
        for pool in workload.pool.values():
            for req in pool:
                expected, stats = answers[req.body.decode()]
                req.expected = expected.encode()
                req.stats = tuple(tuple(pair) for pair in stats)
        probes = {key: value.encode() for key, value in cached["probes"].items()}
        return vocab, workload, probes
    oracle = Oracle()
    try:
        vocab = Vocabulary.of(oracle)
        workload = WORKLOADS[name](vocab)
        answers = {}
        for pool in workload.pool.values():
            for req in pool:
                oracle.fill(req)
                answers[req.body.decode()] = (req.expected.decode(), req.stats)
        probes = oracle.probes()
    finally:
        oracle.close()
    path.parent.mkdir(parents=True, exist_ok=True)
    for stale in path.parent.glob(f"{name}-*.json"):
        stale.unlink()  # answers for sources that are gone
    staging = path.with_suffix(".tmp")
    staging.write_text(
        json.dumps(
            {
                "locations": vocab.locations,
                "cells": vocab.cells,
                "answers": answers,
                "probes": {key: value.decode() for key, value in probes.items()},
            }
        )
    )
    staging.replace(path)
    return vocab, workload, probes


def sweep(vocab: Vocabulary) -> list[Req]:
    """The fixed read sweep compared with the oracle after ``ingest_mix``."""
    reqs = [
        make_req("quantify", _quantify(name, dimension, order, 5))
        for name in DATASETS for dimension in DIMENSIONS for order in ORDERS
    ]
    for name in DATASETS:
        for pair in vocab.pairs(name)[:3]:
            reqs.append(make_req("compare", _compare(name, *pair)))
        reqs.append(make_req("batch", _batch(name, "most", (3, 4, 5))))
    for cell in vocab.cells["taskrabbit"][:4]:
        reqs.append(make_req("whatif", _whatif(GROUPS[0], *cell)))
    return reqs


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------


def new_tally() -> dict:
    return {
        "sent": {}, "status": {}, "failed": 0, "samples": [],
        "reads": [], "writes": [], "acks": [],
        "hits": 0, "lookups": 0, "sorted": 0, "random": 0, "fresh_ta": 0,
    }


def _fail(tally: dict, req: Req, why: str) -> None:
    tally["failed"] += 1
    if len(tally["samples"]) < 5:
        tally["samples"].append(f"{req.op} {req.body[:160]!r}: {why}")


def check(req: Req, status, body: bytes, latency: float, tally: dict) -> None:
    """Judge one answer and record it in ``tally``."""
    op = req.op
    tally["sent"][op] = tally["sent"].get(op, 0) + 1
    if status is None:
        _fail(tally, req, "transport error " + body.decode(errors="replace"))
        return
    tally["status"][(op, status)] = tally["status"].get((op, status), 0) + 1
    if status != 200:
        _fail(tally, req, f"HTTP {status}: {body[:200]!r}")
        return
    if op == "observations":
        _check_write(req, body, latency, tally)
        return
    if req.expected is None:
        ok = _check_unverified(req, body, tally)
    else:
        ok = _check_oracle(req, body, tally)
    if ok:
        tally["reads"].append(latency)


def _check_oracle(req: Req, body: bytes, tally: dict) -> bool:
    normalized, flags = normalize(body)
    if req.op == "batch":
        normalized, groups = batch_prefix(normalized)
        if groups != flags.count(False):
            _fail(tally, req, f"sweep_groups {groups} but {flags.count(False)} cold items")
            return False
    if normalized != req.expected:
        _fail(tally, req, "answer differs from the oracle")
        return False
    _count(tally, flags, req.stats)
    return True


def _count(tally: dict, flags: list[bool], stats) -> None:
    tally["lookups"] += len(flags)
    for cached, (sorted_, random_) in zip(flags, stats):
        if cached:
            tally["hits"] += 1
        elif sorted_ or random_:
            tally["sorted"] += sorted_
            tally["random"] += random_
            tally["fresh_ta"] += 1


def _check_unverified(req: Req, body: bytes, tally: dict) -> bool:
    """``ingest_mix`` reads race the writes, so the answer is checked for
    shape here and the final state against the oracle after the run."""
    try:
        document = json.loads(body)
    except ValueError:
        _fail(tally, req, "answer is not JSON")
        return False
    if req.op == "batch":
        items = document["results"]
        if any(item.get("status") != 200 for item in items):
            _fail(tally, req, "a batch item failed")
            return False
        flags = [item["body"]["cached"] for item in items]
        if document["sweep_groups"] != flags.count(False):
            _fail(tally, req, "sweep_groups disagrees with the cold items")
            return False
        _count(tally, flags, [access_stats(item["body"]) for item in items])
    else:
        _count(tally, [document["cached"]], [access_stats(document)])
    return True


def _check_write(req: Req, body: bytes, latency: float, tally: dict) -> None:
    try:
        ack = json.loads(body)
    except ValueError:
        _fail(tally, req, "write ack is not JSON")
        return
    if ack.get("batch_id") != req.payload["batch_id"] or ack.get("replayed"):
        _fail(tally, req, f"unexpected write ack {body[:200]!r}")
        return
    tally["writes"].append(latency)
    tally["acks"].append((ack["dataset"], ack["generation"], ack["cells_recomputed"], req))
