"""The columnar shared-memory core: equivalence, segments, restart-attach.

The columnar engine (``repro.core.colstore``) must be *indistinguishable*
from the dict reference implementation: same top-k entries, rounds, access
accounting and early stops, same comparison reports, same delta counters
after live ingest — down to the byte over HTTP.  These tests pin that
contract at three layers:

* algorithm level — ``top_k`` / ``quantify_many`` over synthetic cubes
  (dense and NaN-sparse) with a dict family vs a columnar family;
* F-Box level — real crawl datasets, including incremental deltas, plus
  segment publish / attach / restart lifecycle and leak checks;
* service level — a dict server and a columnar server answer the same
  request list identically (in-process and sharded),
  and a respawned shard worker *attaches* to the published segment
  instead of rebuilding.
"""

from __future__ import annotations

import gc
import glob
import json
import os
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.colstore import (
    AttachedFBox,
    ColumnarFamily,
    ColumnarFBox,
    ColumnarStore,
    SegmentMiss,
    SegmentSpace,
)
from repro.core.fagin import top_k
from repro.core.fbox import FBox
from repro.core.indices import build_family
from repro.data.schema import MarketplaceDataset
from repro.marketplace.crawl import emit_observations as emit_marketplace
from repro.service.faults import FAULTS_ENV_VAR
from repro.service.ingest import decode_observations
from repro.service.registry import DatasetRegistry, DatasetSpec
from repro.service.server import make_server
from repro.service.sharding import shard_for

from tests.helpers import make_cube

DIMENSIONS = ("group", "query", "location")


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _columnar_family(cube, dimension: str, order: str) -> ColumnarFamily:
    descending = order == "most"
    store = ColumnarStore.from_cube(cube, [(dimension, descending)])
    offsets, perm = store.families[(dimension, descending)]
    return ColumnarFamily(cube, dimension, descending, offsets, perm)


def _assert_results_match(columnar, reference) -> None:
    """Full TopKResult equality: payload, effort, and cost accounting."""
    assert columnar.entries == reference.entries
    assert columnar.order == reference.order
    assert columnar.rounds == reference.rounds
    assert columnar.early_stopped == reference.early_stopped
    assert columnar.stats.sorted_accesses == reference.stats.sorted_accesses
    assert columnar.stats.random_accesses == reference.stats.random_accesses
    assert columnar.stats.sorted_misses == reference.stats.sorted_misses
    assert columnar.stats.random_misses == reference.stats.random_misses


def _sparse_cube():
    """A cube with missing cells, an empty posting list, and a dead member."""
    cube = make_cube(n_groups=5, n_queries=4, n_locations=3, seed=7)
    cube.values[0, 0, 0] = np.nan  # drop one member from one list
    cube.values[:, 1, 2] = np.nan  # a fully-empty posting list
    cube.values[3, :, :] = np.nan  # a member defined nowhere
    cube.values[4, 2:, :] = np.nan  # a member defined only sometimes
    return cube


def _copy_marketplace(dataset: MarketplaceDataset) -> MarketplaceDataset:
    return MarketplaceDataset(
        workers=dataset.workers.values(), observations=dataset.observations()
    )


def _market_batch(site, dataset, seed=0, batch_size=3, swaps=2) -> list[dict]:
    return next(
        emit_marketplace(
            site, dataset, batches=1, batch_size=batch_size, seed=seed, swaps=swaps
        )
    )


def _get(base: str, path: str):
    try:
        with urllib.request.urlopen(base + path) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get_text(base: str, path: str) -> str:
    with urllib.request.urlopen(base + path) as response:
        return response.read().decode("utf-8")


def _post(base: str, path: str, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _metric(text: str, name: str) -> int:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return int(float(line.split()[-1]))
    raise AssertionError(f"metric {name!r} not in exposition")


def _registry(marketplace, search=None, **kwargs) -> DatasetRegistry:
    registry = DatasetRegistry(**kwargs)
    registry.register(
        DatasetSpec(
            name="taskrabbit",
            site="taskrabbit",
            loader=lambda: marketplace,
            description="six-city category crawl",
        )
    )
    if search is not None:
        registry.register(
            DatasetSpec(
                name="google",
                site="google",
                loader=lambda: search,
                description="two-location study",
            )
        )
    return registry


@pytest.fixture
def space():
    """A uniquely-namespaced segment space, swept clean at teardown."""
    token = f"t{os.getpid():x}{os.urandom(3).hex()}"
    space = SegmentSpace(token)
    yield space
    space.close()
    leaked = glob.glob(f"/dev/shm/fbx{token}*")
    assert leaked == [], f"leaked shared-memory segments: {leaked}"


# ----------------------------------------------------------------------
# Algorithm level: dict family vs columnar family
# ----------------------------------------------------------------------


class TestTopKEquivalence:
    @pytest.mark.parametrize("dimension", DIMENSIONS)
    @pytest.mark.parametrize("order", ["most", "least"])
    def test_dense_cube(self, dimension, order):
        cube = make_cube(n_groups=6, n_queries=4, n_locations=5, seed=3)
        for k in (1, 2, 4, 99):
            reference = top_k(cube, dimension, k, order=order)
            columnar = top_k(
                cube,
                dimension,
                k,
                order=order,
                family=_columnar_family(cube, dimension, order),
            )
            _assert_results_match(columnar, reference)

    @pytest.mark.parametrize("dimension", DIMENSIONS)
    @pytest.mark.parametrize("order", ["most", "least"])
    def test_nan_sparse_cube(self, dimension, order):
        cube = _sparse_cube()
        for k in (1, 3, 99):
            reference = top_k(cube, dimension, k, order=order)
            columnar = top_k(
                cube,
                dimension,
                k,
                order=order,
                family=_columnar_family(cube, dimension, order),
            )
            _assert_results_match(columnar, reference)

    def test_columnar_family_dispatches_run_sweep(self):
        cube = make_cube()
        family = _columnar_family(cube, "group", "most")
        assert hasattr(family, "run_sweep")
        direct = family.run_sweep(2, "most")
        via_top_k = top_k(cube, "group", 2, family=family)
        assert via_top_k.entries == direct.entries

    def test_posting_lists_match_dict_family(self):
        cube = _sparse_cube()
        for dimension in DIMENSIONS:
            reference = build_family(cube, dimension)
            columnar = _columnar_family(cube, dimension, "most")
            assert columnar.pair_keys == reference.pair_keys
            for pair in reference.pair_keys:
                assert (
                    columnar.posting_list(pair).entries
                    == reference.posting_list(pair).entries
                )


class TestFBoxEquivalence:
    """Dict FBox vs ColumnarFBox over real crawl/study datasets."""

    @pytest.fixture
    def boxes(self, schema, small_marketplace_dataset):
        dataset = _copy_marketplace(small_marketplace_dataset)
        return (
            FBox.for_marketplace(dataset, schema),
            ColumnarFBox.for_marketplace(dataset, schema),
            dataset,
        )

    def test_quantify_and_compare(self, boxes):
        reference, columnar, _ = boxes
        for dimension in DIMENSIONS:
            for order in ("most", "least"):
                _assert_results_match(
                    columnar.quantify(dimension, k=3, order=order),
                    reference.quantify(dimension, k=3, order=order),
                )
        naive = reference.quantify("group", k=3, algorithm="naive")
        assert columnar.quantify("group", k=3, algorithm="naive").entries == (
            naive.entries
        )
        left, right = reference.locations[0], reference.locations[1]
        for algorithm in ("cube", "indices"):
            ours = columnar.compare("location", left, right, "query", algorithm)
            theirs = reference.compare("location", left, right, "query", algorithm)
            assert ours.reversed_members == theirs.reversed_members
            assert [
                (row.member, row.value_r1, row.value_r2) for row in ours.rows
            ] == [(row.member, row.value_r1, row.value_r2) for row in theirs.rows]

    def test_quantify_many_slices(self, boxes):
        reference, columnar, _ = boxes
        ours = columnar.quantify_many("group", [1, 2, 5])
        theirs = reference.quantify_many("group", [1, 2, 5])
        assert ours.keys() == theirs.keys()
        for k in ours:
            _assert_results_match(ours[k], theirs[k])

    def test_cubes_and_aggregates_identical(self, boxes):
        reference, columnar, _ = boxes
        assert np.array_equal(
            columnar.cube.values, reference.cube.values, equal_nan=True
        )
        query = reference.queries[0]
        assert columnar.aggregate(queries=[query]) == reference.aggregate(
            queries=[query]
        )

    def test_post_ingest_delta_stays_byte_identical(
        self, boxes, schema, site
    ):
        reference, columnar, dataset = boxes
        reference.cube, columnar.cube  # materialize both pre-delta
        reference.family("group"), columnar.family("group")
        batch = decode_observations(
            "taskrabbit", _market_batch(site, dataset, seed=5)
        )
        touched = dataset.upsert_observations(batch)
        ref_stats = reference.apply_observations(
            dataset.queries, dataset.locations, touched
        )
        col_stats = columnar.apply_observations(
            dataset.queries, dataset.locations, touched
        )
        # Same delta-work counters (the exact staleness predicate) ...
        assert col_stats == ref_stats
        # ... the same post-delta state as each other and as a cold rebuild
        cold = FBox.for_marketplace(dataset, schema)
        for other in (reference, cold):
            assert np.array_equal(
                columnar.cube.values, other.cube.values, equal_nan=True
            )
        for order in ("most", "least"):
            _assert_results_match(
                columnar.quantify("group", k=3, order=order),
                reference.quantify("group", k=3, order=order),
            )


# ----------------------------------------------------------------------
# Segment lifecycle: publish, attach, restart, leaks
# ----------------------------------------------------------------------


class TestSegmentLifecycle:
    def _bound_box(self, space, schema, dataset) -> ColumnarFBox:
        box = ColumnarFBox.for_marketplace(dataset, schema)
        box.bind_segment(space, "taskrabbit", "exposure")
        return box

    def test_cold_twin_attaches_in_place_of_building(
        self, space, schema, small_marketplace_dataset
    ):
        owner = self._bound_box(space, schema, small_marketplace_dataset)
        baseline = owner.quantify("group", k=3)
        assert owner.cube_builds == 1 and owner.segment_attaches == 0

        twin = self._bound_box(space, schema, small_marketplace_dataset)
        result = twin.quantify("group", k=3)
        _assert_results_match(result, baseline)
        # The restart contract: adopt the published segment, build nothing.
        assert twin.segment_attaches == 1
        assert twin.cube_builds == 0 and twin.family_builds == 0

    def test_attached_front_box_matches_owner(
        self, space, schema, small_marketplace_dataset
    ):
        owner = self._bound_box(space, schema, small_marketplace_dataset)
        owner.quantify("group", k=3)  # build + publish cube and family
        front = AttachedFBox.attach(space, "taskrabbit", "exposure")
        _assert_results_match(
            front.quantify("group", k=3), owner.quantify("group", k=3)
        )
        many_front = front.quantify_many("group", [1, 3])
        many_owner = owner.quantify_many("group", [1, 3])
        for k in many_owner:
            _assert_results_match(many_front[k], many_owner[k])
        left, right = owner.locations[0], owner.locations[1]
        assert (
            front.compare("location", left, right, "query").reversed_members
            == owner.compare("location", left, right, "query").reversed_members
        )
        query = owner.queries[0]
        assert front.aggregate(queries=[query]) == owner.aggregate(queries=[query])
        assert front.generation >= 1

    def test_attach_misses_on_empty_namespace(self, space):
        with pytest.raises(SegmentMiss):
            AttachedFBox.attach(space, "taskrabbit", "exposure")

    def test_delta_publishes_new_generation(
        self, space, schema, site, small_marketplace_dataset
    ):
        dataset = _copy_marketplace(small_marketplace_dataset)
        owner = self._bound_box(space, schema, dataset)
        owner.quantify("group", k=3)
        before = space.head_generation("taskrabbit", "exposure")
        batch = decode_observations("taskrabbit", _market_batch(site, dataset))
        touched = dataset.upsert_observations(batch)
        owner.apply_observations(dataset.queries, dataset.locations, touched)
        after = space.head_generation("taskrabbit", "exposure")
        assert after > before
        # A cold attach after the delta sees the post-ingest state.
        front = AttachedFBox.attach(space, "taskrabbit", "exposure")
        assert np.array_equal(
            front.cube.values, owner.cube.values, equal_nan=True
        )
        # Superseded payload generations were unlinked, not retained.
        live = glob.glob(f"/dev/shm/fbx{space.namespace}*-g*")
        assert len(live) == 1, live

    def test_registry_restart_attaches_and_close_sweeps(
        self, schema, small_marketplace_dataset
    ):
        token = f"t{os.getpid():x}{os.urandom(3).hex()}"
        front = _registry(
            small_marketplace_dataset,
            core="columnar",
            namespace=token,
            schema=schema,
        )
        try:
            front.fbox("taskrabbit").quantify("group", k=3)
            assert front.build_counts()["cube_builds"] == 1

            # A "restarted worker": same namespace, no segment ownership.
            revived = _registry(
                small_marketplace_dataset,
                core="columnar",
                namespace=token,
                schema=schema,
                owns_segments=False,
            )
            revived.fbox("taskrabbit").quantify("group", k=3)
            counts = revived.build_counts()
            assert counts["segment_attaches"] == 1
            assert counts["cube_builds"] == 0
            assert counts["family_builds"] == 0
            # The non-owner's close must leave the segments alone ...
            revived.close()
            assert glob.glob(f"/dev/shm/fbx{token}*")
        finally:
            # ... and the owner's close must sweep them all.
            front.close()
        assert glob.glob(f"/dev/shm/fbx{token}*") == []

    def test_reregistration_clears_stale_segments(
        self, schema, small_marketplace_dataset
    ):
        token = f"t{os.getpid():x}{os.urandom(3).hex()}"
        registry = _registry(
            small_marketplace_dataset,
            core="columnar",
            namespace=token,
            schema=schema,
        )
        try:
            registry.fbox("taskrabbit").quantify("group", k=3)
            assert glob.glob(f"/dev/shm/fbx{token}*")
            registry.register(
                DatasetSpec(
                    name="taskrabbit",
                    site="taskrabbit",
                    loader=lambda: small_marketplace_dataset,
                    description="replacement",
                )
            )
            # A replaced dataset's segments describe the old one: gone.
            assert glob.glob(f"/dev/shm/fbx{token}*") == []
        finally:
            registry.close()


def _mapped(namespace: str) -> list[str]:
    """This process's shared-memory mappings in ``namespace``."""
    with open("/proc/self/maps") as maps:
        return [line for line in maps if f"/fbx{namespace}-" in line]


needs_proc_maps = pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
)


class TestViewCache:
    """``AttachedFBox.attach`` reuses one view per head record — never
    past a change of the head, and never past a ``clear``."""

    def _bound_box(self, space, schema, dataset) -> ColumnarFBox:
        box = ColumnarFBox.for_marketplace(dataset, schema)
        box.bind_segment(space, "taskrabbit", "exposure")
        return box

    def test_unchanged_head_reuses_the_view(
        self, space, schema, small_marketplace_dataset
    ):
        self._bound_box(space, schema, small_marketplace_dataset).cube
        first = AttachedFBox.attach(space, "taskrabbit", "exposure")
        assert AttachedFBox.attach(space, "taskrabbit", "exposure") is first

    def test_ingest_is_visible_to_the_next_front_read(
        self, space, schema, site, small_marketplace_dataset
    ):
        dataset = _copy_marketplace(small_marketplace_dataset)
        owner = self._bound_box(space, schema, dataset)
        owner.quantify("group", k=3)
        before = AttachedFBox.attach(space, "taskrabbit", "exposure")
        batch = decode_observations("taskrabbit", _market_batch(site, dataset))
        touched = dataset.upsert_observations(batch)
        owner.apply_observations(dataset.queries, dataset.locations, touched)
        after = AttachedFBox.attach(space, "taskrabbit", "exposure")
        assert after is not before
        assert after.generation == space.head_generation("taskrabbit", "exposure")
        assert not np.array_equal(
            before.cube.values, owner.cube.values, equal_nan=True
        )
        assert np.array_equal(after.cube.values, owner.cube.values, equal_nan=True)
        _assert_results_match(
            after.quantify("group", k=3), owner.quantify("group", k=3)
        )

    def test_republish_after_clear_is_never_served_from_the_old_view(
        self, space, schema
    ):
        # The front and the publisher are different processes in a server:
        # a second space on the same namespace keeps its own cached views,
        # which the publisher's clear cannot drop.
        front = SegmentSpace(space.namespace)
        old = ColumnarStore.from_cube(make_cube(seed=1), [("group", True)])
        new = ColumnarStore.from_cube(make_cube(seed=2), [("group", True)])
        assert space.publish("taskrabbit", "exposure", old.encode) == 1
        stale = AttachedFBox.attach(front, "taskrabbit", "exposure")
        space.clear()
        # Generation numbering restarts: same generation, same payload name.
        assert space.publish("taskrabbit", "exposure", new.encode) == 1
        fresh = AttachedFBox.attach(front, "taskrabbit", "exposure")
        assert fresh is not stale
        assert fresh.generation == stale.generation == 1
        assert np.array_equal(fresh.cube.values, new.cube.values)
        assert not np.array_equal(fresh.cube.values, old.cube.values)

    def test_concurrent_readers_never_see_a_superseded_view(self, space):
        """Readers share one cached view while a publisher moves the head:
        every attach answers with a generation at least as new as the head
        before it started, holding exactly that generation's values."""
        cubes = {gen: make_cube(seed=gen) for gen in range(1, 31)}
        published = [0]
        errors: list[str] = []
        space.publish("d", "m", ColumnarStore.from_cube(cubes[1]).encode)
        published[0] = 1

        def publisher() -> None:
            for generation in range(2, 31):
                store = ColumnarStore.from_cube(cubes[generation])
                assert space.publish("d", "m", store.encode) == generation
                published[0] = generation
                time.sleep(0.002)

        deadline = time.monotonic() + 30

        def reader() -> None:
            while time.monotonic() < deadline:
                floor = published[0]
                try:
                    view = AttachedFBox.attach(space, "d", "m")
                except SegmentMiss:
                    continue  # lost the race to an unlink: routed instead
                if view.generation < floor:
                    errors.append(f"generation {view.generation} < {floor}")
                if not np.array_equal(view.cube.values, cubes[view.generation].values):
                    errors.append(f"generation {view.generation} has wrong values")
                if floor == 30:
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, daemon=True) for _ in range(4)]
            threads.append(threading.Thread(target=publisher, daemon=True))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=40)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert AttachedFBox.attach(space, "d", "m").generation == 30

    @needs_proc_maps
    def test_clear_drops_cached_views(self, space, schema, small_marketplace_dataset):
        self._bound_box(space, schema, small_marketplace_dataset).quantify(
            "group", k=3
        )
        front = AttachedFBox.attach(space, "taskrabbit", "exposure")
        front.quantify("group", k=3)
        assert _mapped(space.namespace)
        del front
        space.clear(dataset="taskrabbit")
        gc.collect()
        # Nothing unlinked stays mapped through a cached view.
        assert _mapped(space.namespace) == []
        with pytest.raises(SegmentMiss):
            AttachedFBox.attach(space, "taskrabbit", "exposure")

    @needs_proc_maps
    def test_close_drops_views_and_segments(self, schema, small_marketplace_dataset):
        token = f"t{os.getpid():x}{os.urandom(3).hex()}"
        space = SegmentSpace(token)
        try:
            self._bound_box(space, schema, small_marketplace_dataset).cube
            AttachedFBox.attach(space, "taskrabbit", "exposure")
        finally:
            space.close()
        gc.collect()
        assert glob.glob(f"/dev/shm/fbx{token}*") == []
        assert _mapped(token) == []


# ----------------------------------------------------------------------
# Service level: the two cores answer identically over HTTP
# ----------------------------------------------------------------------

PARITY_REQUESTS = (
    ("/v1/quantify", {"dataset": "taskrabbit", "dimension": "group", "k": 3}),
    (
        "/v1/quantify",
        {
            "dataset": "taskrabbit",
            "dimension": "query",
            "k": 2,
            "order": "least",
            "algorithm": "naive",
        },
    ),
    (
        "/v1/compare",
        {
            "dataset": "taskrabbit",
            "dimension": "group",
            "r1": "gender=Male",
            "r2": "gender=Female",
            "breakdown": "location",
        },
    ),
    (
        "/v1/compare",
        {
            "dataset": "taskrabbit",
            "dimension": "location",
            "r1": "Chicago, IL",
            "r2": "Boston, MA",
            "breakdown": "query",
            "algorithm": "indices",
        },
    ),
    ("/v1/quantify", {"dataset": "missing", "dimension": "group", "k": 1}),
    # A repeat of the first request: "cached" flags must agree too.
    ("/v1/quantify", {"dataset": "taskrabbit", "dimension": "group", "k": 3}),
)


class TestServiceParity:
    def test_columnar_server_matches_dict_server(
        self, start_service, site, small_marketplace_dataset
    ):
        servers = {}
        for core in ("dict", "columnar"):
            registry = _registry(_copy_marketplace(small_marketplace_dataset))
            servers[core] = start_service(
                registry=registry, core=core, request_timeout=60.0
            )

        def both(path, payload):
            answers = {
                core: _post(server.url, path, payload)
                for core, server in servers.items()
            }
            assert answers["columnar"] == answers["dict"], (path, payload)
            return answers["dict"]

        for path, payload in PARITY_REQUESTS:
            both(path, payload)

        # Live ingest, its replay, and the post-ingest read must agree too.
        batch = _market_batch(site, small_marketplace_dataset)
        ingest = {
            "dataset": "taskrabbit",
            "batch_id": "parity-1",
            "sequence": 1,
            "observations": batch,
        }
        status, document = both("/v1/observations", ingest)
        assert status == 200 and document["replayed"] is False
        status, document = both("/v1/observations", ingest)
        assert status == 200 and document["replayed"] is True
        status, _ = both(
            "/v1/quantify", {"dataset": "taskrabbit", "dimension": "group", "k": 3}
        )
        assert status == 200


class TestIngestSequence:
    """Satellite: the bounded idempotency ledger's replay hole is closed."""

    @pytest.fixture
    def service(self, start_service, small_marketplace_dataset):
        registry = _registry(_copy_marketplace(small_marketplace_dataset))
        return start_service(registry=registry, request_timeout=60.0)

    def test_stale_sequence_with_unknown_batch_id_conflicts(
        self, service, site, small_marketplace_dataset
    ):
        first = {
            "dataset": "taskrabbit",
            "batch_id": "seq-1",
            "sequence": 7,
            "observations": _market_batch(site, small_marketplace_dataset),
        }
        status, document = _post(service.url, "/v1/observations", first)
        assert status == 200
        assert document["sequence"] == 7

        # Known batch_id: the ledger answers, whatever the sequence says.
        status, replay = _post(service.url, "/v1/observations", first)
        assert status == 200 and replay["replayed"] is True

        # Unknown batch_id at/below the high-water mark: refuse, don't apply.
        stale = {
            **first,
            "batch_id": "seq-0-evicted",
            "observations": _market_batch(site, small_marketplace_dataset, seed=9),
        }
        status, body = _post(service.url, "/v1/observations", stale)
        assert status == 409
        error = body["error"]
        assert error["code"] == "batch_conflict"
        assert error["retryable"] is False
        assert "high-water" in error["message"]

        # A fresh sequence from the same client applies normally.
        fresh = {**stale, "batch_id": "seq-2", "sequence": 8}
        status, document = _post(service.url, "/v1/observations", fresh)
        assert status == 200 and document["replayed"] is False

        metrics = _get_text(service.url, "/v1/metrics")
        assert 'fbox_ingest_replays_total{kind="ledger"} 1' in metrics
        assert 'fbox_ingest_replays_total{kind="conflict"} 1' in metrics

    def test_sequence_field_is_validated(self, service):
        for bad in (-1, "7", 1.5, True):
            status, body = _post(
                service.url,
                "/v1/observations",
                {
                    "dataset": "taskrabbit",
                    "sequence": bad,
                    "observations": [{}],
                },
            )
            assert status == 400, (bad, body)
            assert "sequence" in body["error"]["message"]

    def test_batch_conflict_is_catalogued(self, service):
        _, schema_doc = _get(service.url, "/v1/schema")
        errors = {entry["code"]: entry for entry in schema_doc["errors"]}
        assert errors["batch_conflict"]["status"] == 409
        assert errors["batch_conflict"]["retryable"] is False


class TestWorkerRestartAttach:
    def test_respawned_worker_attaches_without_rebuilding(
        self, monkeypatch, small_marketplace_dataset, small_search_dataset
    ):
        # Kill the worker that owns "taskrabbit" on its first /compare —
        # the same FBOX_FAULTS chaos knob the sharding suite uses.
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            json.dumps(
                {"rules": [{"site": "worker_exit", "match": "/compare", "times": 1}]}
            ),
        )
        registry = _registry(
            _copy_marketplace(small_marketplace_dataset), small_search_dataset
        )
        server = make_server(
            registry=registry,
            port=0,
            shards=2,
            core="columnar",
            request_timeout=60.0,
            cache_size=0,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            quantify = {"dataset": "taskrabbit", "dimension": "group", "k": 3}
            status, _ = _post(server.url, "/v1/quantify", quantify)
            assert status == 200
            metrics = _get_text(server.url, "/v1/metrics")
            assert _metric(metrics, "fbox_cube_builds_total") == 1
            assert _metric(metrics, "fbox_segment_attaches_total") == 0

            status, body = _post(
                server.url,
                "/v1/compare",
                {
                    "dataset": "taskrabbit",
                    "dimension": "group",
                    "r1": "gender=Male",
                    "r2": "gender=Female",
                    "breakdown": "location",
                },
            )
            assert status == 503
            assert body["error"]["code"] == "shard_unavailable"
            assert body["error"]["shard"] == shard_for("taskrabbit", 2)

            deadline = time.monotonic() + 20.0
            status, body = 0, {}
            while time.monotonic() < deadline:
                status, body = _post(server.url, "/v1/quantify", quantify)
                if status == 200:
                    break
                time.sleep(0.1)
            assert status == 200, body

            # The revived worker adopted the published segment: one attach,
            # zero rebuilds anywhere in the merged process family.
            metrics = _get_text(server.url, "/v1/metrics")
            assert _metric(metrics, "fbox_segment_attaches_total") == 1
            assert _metric(metrics, "fbox_cube_builds_total") == 0
            assert _metric(metrics, "fbox_index_family_builds_total") == 0
        finally:
            server.shutdown()
            thread.join(timeout=5)
            server.server_close()
