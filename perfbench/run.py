"""The F-Box serving benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload hot_read|cold_read|ingest_mix
        --seed N --seconds S --trace 0|1

Each run starts real server processes (``launcher.py``: columnar core,
asyncio transport) and drives them from this process with two client
threads on two keep-alive connections, in a closed loop: a connection
sends its next request only after the previous one answered.  Nothing is
retried; a shed request (429/503) is a failure.

* ``--trace 0`` sets the server up twice (``setup_s`` is the median),
  times the workload on the last one, and prints the end-to-end metrics.
  Throughput, read p50/p95 and server CPU per request are medians over
  the whole seconds of the timed phase, because the speed of a shared
  machine drifts from second to second.
* ``--trace 1`` runs the workload once untraced (for counters, write
  latency and the tracing overhead) and once on a traced server with the
  same seed and length, and prints the per-layer metrics.

Every answer is checked: against the dict-core oracle byte for byte
(``hot_read``, ``cold_read``), or through the write acks and a post-run
read sweep compared with the oracle after it replays the acknowledged
writes (``ingest_mix``).  After every server stops, no server process may
survive and no segment of its ``/dev/shm`` namespace may remain.  A
failed check makes ``correct`` false and the exit code 1.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it are the run record (``# ...``).

``BENCHMARK.json`` lists ``hot_read`` and ``ingest_mix``.  ``cold_read``
(both measures over a parameter space about 19 times the cache) runs the
same way; it is left out of the listed set only to keep the full set of
runs within its time budget.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from client import (  # noqa: E402 - found through the path set above
    Connection,
    alive,
    children_of,
    closed_loop,
    cpu_seconds,
    get_bytes,
    peak_rss_mb,
    post_bytes,
)
from tracing import analyse, load_spans  # noqa: E402
from workloads import (  # noqa: E402
    DATASETS,
    READS,
    TOKEN,
    WORKLOADS,
    Oracle,
    Vocabulary,
    check,
    new_tally,
    normalize,
    probe,
    reference,
    source_digest,
    sweep,
)

_clock = time.perf_counter
SETUPS = 2
STREAMS = 2
REPLAY_BATCH = 256  # the service's per-request observation limit
SHM = Path("/dev/shm")


def _percentile(values, fraction):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))] if ordered else 0.0


# ----------------------------------------------------------------------
# One server process
# ----------------------------------------------------------------------


class Server:
    """A launched F-Box server: set-up timing, shutdown and leak checks."""

    def __init__(self, workload, run_dir: Path, label: str, trace_dir=None) -> None:
        self.workload = workload
        self.run_dir = run_dir
        self.label = label
        self.trace_dir = trace_dir
        self.namespace = "pb" + os.urandom(5).hex()
        self.proc = None
        self.url = None
        self.workers: list[int] = []

    def start(self, oracle_probes: dict) -> float:
        """Launch, register both datasets, and wait for the first correct
        answer on each; returns the seconds that took."""
        began = _clock()
        out_path = self.run_dir / f"{self.label}.out"
        command = [
            sys.executable, str(HERE / "launcher.py"),
            "--namespace", self.namespace, "--token", TOKEN,
            "--shards", str(self.workload.shards),
        ]
        if self.trace_dir is not None:
            command += ["--trace-dir", str(self.trace_dir)]
        with open(out_path, "wb") as out, open(self.run_dir / f"{self.label}.err", "wb") as err:
            self.proc = subprocess.Popen(command, stdout=out, stderr=err, cwd=ROOT)
        deadline = time.monotonic() + 60
        while self.url is None:
            text = out_path.read_text()
            if "listening on " in text:
                self.url = text.split("listening on ", 1)[1].split()[0]
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server {self.label} did not start; see {out_path}")
            time.sleep(0.005)
        self.boot_s = _clock() - began
        conn = Connection(self.url)
        try:
            shards = set()
            for name, scenario in DATASETS.items():
                body = json.dumps({"name": name, "scenario": scenario}).encode()
                status, answer = conn.send(
                    post_bytes("/v1/datasets", body, TOKEN) + b"setup\r\n\r\n" + body
                )
                if status != 200:
                    raise RuntimeError(f"registration of {name} failed: {answer[:200]!r}")
                shards.add(json.loads(answer)["shard"])
            if self.workload.shards and len(shards) != len(DATASETS):
                raise RuntimeError(f"datasets share a shard: {shards}")
            for name in DATASETS:
                body = json.dumps(probe(name)).encode()
                status, answer = conn.send(
                    post_bytes("/v1/quantify", body) + b"setup\r\n\r\n" + body
                )
                if status != 200 or normalize(answer)[0] != oracle_probes[name]:
                    raise RuntimeError(f"first answer on {name} is wrong: {answer[:200]!r}")
        finally:
            conn.close()
        self.setup_window = (began, _clock())
        self.workers = children_of(self.proc.pid)
        return self.setup_window[1] - began

    def pids(self) -> list[int]:
        return [self.proc.pid] + self.workers

    def stop(self) -> list[str]:
        """SIGTERM (drain), then the clean-exit check; returns the leaks."""
        leaks = []
        if self.proc is None:
            return leaks
        pids = self.pids()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            leaks.append(f"{self.label}: server did not stop on SIGTERM")
            self.proc.kill()
            self.proc.wait(timeout=30)
        deadline = time.monotonic() + 10
        while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.02)
        for pid in pids:
            if alive(pid):
                leaks.append(f"{self.label}: process {pid} survived the server")
                os.kill(pid, signal.SIGKILL)
        prefix = f"fbx{self.namespace}-"
        if SHM.is_dir():
            for entry in SHM.iterdir():
                if entry.name.startswith(prefix):
                    leaks.append(f"{self.label}: /dev/shm/{entry.name} left behind")
                    entry.unlink(missing_ok=True)
        return leaks


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------


def scrape(url: str) -> dict[str, float]:
    conn = Connection(url)
    try:
        status, body = conn.send(get_bytes("/v1/metrics"))
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET /v1/metrics answered {status}")
    values = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            values[key] = float(value)
    return values


def merge(tallies: list[dict]) -> dict:
    total = new_tally()
    for tally in tallies:
        for key in ("sent", "status"):
            for item, count in tally[key].items():
                total[key][item] = total[key].get(item, 0) + count
        for key in ("failed", "hits", "lookups", "sorted", "random", "fresh_ta"):
            total[key] += tally[key]
        for key in ("samples", "reads", "writes", "acks"):
            total[key].extend(tally[key])
    return total


def warm(server: Server, workload, streams, tag: str):
    """Warm-up: build every F-Box (and, for ``hot_read``, fill the cache
    with every distinct request), then an optional closed-loop stretch.
    Returns the tally and where each stream resumes."""
    tally = new_tally()
    if workload.warm_all:
        firsts = [req for op, pool in workload.pool.items() for req in pool]
    else:
        firsts = [req for req in workload.pool["quantify"] if req.payload["k"] == 1]
        firsts += [pool[0] for op, pool in workload.pool.items() if op in ("compare", "batch", "whatif")]
    conn = Connection(server.url)
    try:
        for index, req in enumerate(firsts):
            began = _clock()
            status, body = conn.send(req.head + f"{tag}w{index}".encode() + b"\r\n\r\n" + req.body)
            check(req, status, body, _clock() - began, tally)
    finally:
        conn.close()
    positions = [0] * len(streams)
    tallies = [tally]
    if workload.warm_seconds:
        loop = closed_loop(
            server.url, streams, workload.warm_seconds, check, new_tally, tag + "w"
        )
        tallies += loop["tallies"]
        positions = loop["positions"]
    return merge(tallies), positions


def timed(server: Server, streams, starts, seconds: float, tag: str) -> dict:
    """The measured closed loop, with counters and ``/proc`` around it.

    The machine's speed drifts from second to second, so the rate, the
    read latency percentiles and the server CPU per request are each the
    median over the whole seconds of the phase of that second's figure.
    """
    before = scrape(server.url)
    pids = server.pids()
    loop = closed_loop(
        server.url, streams, seconds, check, new_tally, tag, starts,
        sample=lambda: cpu_seconds(pids),
    )
    rss = peak_rss_mb(pids)
    after = scrape(server.url)
    tally = merge(loop["tallies"])
    start, end = loop["window"]
    elapsed = end - start
    samples, log = loop["samples"], loop["log"]
    per_second = []
    for (began, cpu_began), (ended, cpu_ended) in zip(samples, samples[1:]):
        inside = log[bisect.bisect_left(log, (began,)) : bisect.bisect_left(log, (ended,))]
        reads = sorted(latency for _, latency, op in inside if op in READS)
        per_second.append(
            (
                len(inside) / (ended - began),
                _percentile(reads, 0.50),
                _percentile(reads, 0.95),
                (cpu_ended - cpu_began) / max(1, len(inside)),
            )
        )
    median = [statistics.median(column) for column in zip(*per_second)]
    completed = sum(tally["sent"].values())
    return {
        "tally": tally,
        "latency": loop["latency"],
        "window": loop["window"],
        "elapsed": elapsed,
        "completed": completed,
        "throughput": median[0],
        "read_p50_ms": median[1] * 1e3,
        "read_p95_ms": median[2] * 1e3,
        "server_cpu_ms_per_req": median[3] * 1e3,
        "mean_rps": completed / elapsed,
        "per_second": per_second,
        "client_cpu_share": loop["client_cpu"] / elapsed,
        "rss_mb": rss,
        "counters": (before, after),
    }


def reconcile(phase: dict) -> list[str]:
    """Counter deltas over the timed phase against the client's own counts
    and the answers' fields; one line per mismatching counter."""
    before, after = phase["counters"]
    tally = phase["tally"]

    def delta(key):
        return after.get(key, 0.0) - before.get(key, 0.0)

    expected = {}
    for (op, status), count in tally["status"].items():
        key = f'fbox_requests_total{{endpoint="/{op}",status="{status}"}}'
        expected[key] = count
    expected['fbox_cache_events_total{event="hits"}'] = tally["hits"]
    expected["cache hits+misses"] = tally["lookups"]
    expected['fbox_index_accesses_total{mode="sorted"}'] = tally["sorted"]
    expected['fbox_index_accesses_total{mode="random"}'] = tally["random"]
    expected["fbox_segment_attaches_total"] = 0
    mismatches = []
    for key, want in expected.items():
        if key == "cache hits+misses":
            got = delta('fbox_cache_events_total{event="hits"}') + delta(
                'fbox_cache_events_total{event="misses"}'
            )
        else:
            got = delta(key)
        if got != want:
            mismatches.append(f"{key}: counter moved {got:g}, benchmark counted {want}")
    return mismatches


def ingest_checks(acks: list, oracle, server: Server, vocab) -> tuple[list[str], dict]:
    """Write acks carry unique, contiguous generations per dataset; after
    the oracle replays them in generation order, a fixed read sweep on the
    server answers exactly like the oracle.  Returns the problems found and
    the sweep's tally."""
    problems = []
    by_dataset: dict[str, list] = {}
    for dataset, generation, _, req in acks:
        by_dataset.setdefault(dataset, []).append((generation, req))
    for dataset, entries in sorted(by_dataset.items()):
        entries.sort(key=lambda entry: entry[0])
        generations = [generation for generation, _ in entries]
        if generations != list(range(2, 2 + len(generations))):
            problems.append(f"{dataset}: write generations are not 2..{1 + len(generations)}")
            continue
        # Replayed in generation order, in as few batches as the ingest
        # limit allows: a later observation of a cell replaces an earlier
        # one either way, and answers do not carry the generation.
        observations = [req.payload["observations"][0] for _, req in entries]
        for start in range(0, len(observations), REPLAY_BATCH):
            oracle.post(
                "observations",
                {"dataset": dataset, "observations": observations[start : start + REPLAY_BATCH]},
            )
    tally = new_tally()
    conn = Connection(server.url)
    try:
        for index, req in enumerate(sweep(vocab)):
            oracle.fill(req)
            status, body = conn.send(req.head + f"sweep{index}".encode() + b"\r\n\r\n" + req.body)
            check(req, status, body, 0.0, tally)
    finally:
        conn.close()
    return problems, tally


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def record_header(args, workload, digest: str) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest,
        "visible_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "server": {
            "core": "columnar",
            "transport": "asyncio",
            "shards": workload.shards,
            "cache_capacity": 256,
        },
        "client": {"connections": STREAMS, "loop": "closed", "retries": 0},
    }


def run(args) -> int:
    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    attempted = failed = 0
    digest = source_digest(ROOT)
    stages: dict[str, float] = {}
    oracle = None
    fresh_oracle = True
    try:
        began = _clock()
        if args.workload == "ingest_mix":
            oracle = Oracle()
            vocab = Vocabulary.of(oracle)
            workload = WORKLOADS[args.workload](vocab)
            oracle_probes = oracle.probes()
        else:
            vocab, workload, oracle_probes = reference(args.workload, ROOT, digest)
        stages["reference"] = _clock() - began
        header = record_header(args, workload, digest)
        per_stream = max(2_000, int(workload.cap_rps * (args.seconds + 3) / STREAMS))
        streams = workload.streams(args.seed, STREAMS, per_stream)

        def session(label, trace_dir=None, setups=1):
            """Set up ``setups`` servers; time the workload on the last."""
            nonlocal attempted, failed, oracle, fresh_oracle
            setup_times = []
            for index in range(setups):
                server = Server(workload, run_dir, f"{label}{index}", trace_dir)
                try:
                    setup_times.append(server.start(oracle_probes))
                    if index < setups - 1:
                        continue
                    began = _clock()
                    warm_tally, starts = warm(server, workload, streams, label)
                    stages[label + " warm-up"] = _clock() - began
                    phase = timed(server, streams, starts, args.seconds, label)
                    phase["acks"] = warm_tally["acks"] + phase["tally"]["acks"]
                    for tally in (warm_tally, phase["tally"]):
                        attempted += sum(tally["sent"].values())
                        failed += tally["failed"]
                        problems.extend(tally["samples"])
                    if workload.name == "ingest_mix":
                        began = _clock()
                        if not fresh_oracle:  # replay from generation 1
                            oracle.close()
                            oracle = Oracle()
                        fresh_oracle = False
                        ingest_problems, sweep_tally = ingest_checks(
                            phase["acks"], oracle, server, vocab
                        )
                        attempted += sum(sweep_tally["sent"].values())
                        failed += sweep_tally["failed"]
                        problems.extend(ingest_problems)
                        stages[label + " replay+sweep"] = _clock() - began
                finally:
                    problems.extend(server.stop())
            stages[label + " setups"] = sum(setup_times)
            phase["setup_times"] = setup_times
            phase["server"] = server
            return phase

        if args.trace:
            plain = session("u")
            trace_dir = run_dir / "spans"
            traced = session("t", trace_dir=trace_dir)
            metrics, notes = per_layer(plain, traced, trace_dir)
        else:
            plain = session("s", setups=SETUPS)
            metrics, notes = end_to_end(plain)
        notes["counter mismatches"] = reconcile(plain) or "none"
        notes["stages (s)"] = ", ".join(f"{key} {value:.2f}" for key, value in stages.items())
    finally:
        if oracle is not None:
            oracle.close()

    correct = not problems and failed == 0
    header["loadgen.cpu_share"] = round(plain["client_cpu_share"], 4)
    print("# run record " + json.dumps(header, sort_keys=True))
    for key, value in notes.items():
        print(f"# {key}: {value}")
    for problem in problems:
        print(f"# FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0 if correct else 1


def _latency_notes(tally: dict) -> dict:
    reads, writes = tally["reads"], tally["writes"]
    attempted = sum(tally["sent"].values())
    return {
        "read latency": f"p50 {_percentile(reads, .5) * 1e3:.3f} ms, p95 "
        f"{_percentile(reads, .95) * 1e3:.3f} ms (n={len(reads)})",
        "write latency": (
            f"p50 {_percentile(writes, .5) * 1e3:.3f} ms, p95 "
            f"{_percentile(writes, .95) * 1e3:.3f} ms (n={len(writes)})"
            if writes else "no writes in this workload"
        ),
        "error_rate": f"{tally['failed'] / max(1, attempted):.6f} "
        f"({tally['failed']} of {attempted})",
        "requests by op": json.dumps(tally["sent"], sort_keys=True),
    }


def end_to_end(phase: dict) -> tuple[dict, dict]:
    tally = phase["tally"]
    metrics = {
        "setup_s": (statistics.median(phase["setup_times"]), "s"),
        "throughput_rps": (phase["throughput"], "req/s"),
        "read_p50_ms": (phase["read_p50_ms"], "ms"),
        "read_p95_ms": (phase["read_p95_ms"], "ms"),
        "server_cpu_ms_per_req": (phase["server_cpu_ms_per_req"], "ms"),
        "server_rss_mb": (phase["rss_mb"], "MB"),
    }
    notes = {
        "setups (s)": ", ".join(f"{value:.3f}" for value in phase["setup_times"]),
        "timed phase": f"{phase['completed']} requests in {phase['elapsed']:.3f} s "
        f"({phase['mean_rps']:.1f} req/s overall)",
        **_latency_notes(tally),
        "per second (req/s, read p50 ms, read p95 ms, server cpu ms/req)": json.dumps(
            [[round(value * (1 if i == 0 else 1e3), 4) for i, value in enumerate(row)]
             for row in phase["per_second"]]
        ),
    }
    return metrics, notes


def per_layer(plain: dict, traced: dict, trace_dir: Path) -> tuple[dict, dict]:
    """Per-layer metrics: spans of the traced run, counters and write
    latency of the untraced one, and the ratio of the two runs' rates."""

    tally = plain["tally"]
    before, after = plain["counters"]

    def delta(key):
        return after.get(key, 0.0) - before.get(key, 0.0)

    hits = delta('fbox_cache_events_total{event="hits"}')
    misses = delta('fbox_cache_events_total{event="misses"}')
    traced_tally = traced["tally"]
    reads = sum(traced_tally["sent"].get(op, 0) for op in READS)
    client = {
        "latency": traced["latency"],
        "window": traced["window"],
        "posts": sum(traced_tally["sent"].values()),
        "reads": reads,
        "setup_window": traced["server"].setup_window,
        "untraced_mean_s": statistics.fmean(
            list(plain["tally"]["reads"]) + list(plain["tally"]["writes"])
        ),
    }
    layer, span_counts = analyse(load_spans(trace_dir), traced["server"].proc.pid, client)
    acks = tally["acks"]
    counted = {
        "admission.shed": (delta('fbox_admission_total{outcome="shed"}'), "count"),
        "cache.hit_ratio": (hits / max(1.0, hits + misses), "ratio"),
        "cache.evictions": (delta('fbox_cache_events_total{event="evictions"}'), "count"),
        "core.ta_accesses_per_query": (
            (tally["sorted"] + tally["random"]) / max(1, tally["fresh_ta"]), "count"
        ),
        "cube.cells_per_write": (
            statistics.fmean(ack[2] for ack in acks) if acks else 0.0, "count"
        ),
        "loadgen.cpu_share": (plain["client_cpu_share"], "ratio"),
        "setup.boot_s": (traced["server"].boot_s, "s"),
        "trace.overhead": (plain["mean_rps"] / traced["mean_rps"], "ratio"),
        "write_p50_ms": (_percentile(tally["writes"], 0.50) * 1e3, "ms"),
        "write_p95_ms": (_percentile(tally["writes"], 0.95) * 1e3, "ms"),
        "error_rate": (tally["failed"] / max(1, sum(tally["sent"].values())), "ratio"),
    }
    metrics = {}
    for name, value in layer.items():
        unit = "ms" if name.endswith("_ms") else "s" if name.endswith("_s") else (
            "ratio" if name.endswith(("_share", "_per_read")) else "count"
        )
        metrics[name] = (value, unit)
    metrics.update(counted)
    notes = {
        "traced timed phase": f"{traced['completed']} requests in {traced['elapsed']:.3f} s",
        "untraced timed phase": f"{plain['completed']} requests in {plain['elapsed']:.3f} s",
        "timed-phase spans": json.dumps(span_counts, sort_keys=True),
        **_latency_notes(tally),
    }
    return dict(sorted(metrics.items())), notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("hot_read", "cold_read", "ingest_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no F-Box source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except Exception:  # noqa: BLE001 - report and fail without a result line
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
