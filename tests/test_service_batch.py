"""The batch endpoint: envelope validation, per-item isolation, shared sweeps.

``POST /batch`` groups homogeneous quantify sub-requests by ``(dataset,
measure, dimension, order)`` and answers each group with one Fagin sweep at
the group's largest ``k``.  These tests pin down the three contracts that
make that safe: item failures never fail the batch, sliced results are
byte-identical to independent top-k runs, and the shared sweep really does
cost one family build plus measurably fewer index accesses than sequential
POSTs (asserted via ``/metrics``).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.batch import multi_top_k, plan_groups, slice_top_k
from repro.core.fagin import top_k
from repro.core.fbox import FBox
from repro.service import handlers as handlers_mod

from tests.helpers import make_cube
from tests.test_service import ServiceHarness, _registry


@pytest.fixture
def service(start_service, small_marketplace_dataset, small_search_dataset):
    registry = _registry(small_marketplace_dataset, small_search_dataset)
    return ServiceHarness(start_service(registry=registry, request_timeout=120.0))


def _quantify_item(k: int, **overrides) -> dict:
    item = {
        "op": "quantify",
        "dataset": "taskrabbit",
        "dimension": "group",
        "k": k,
    }
    item.update(overrides)
    return item


def _metric_value(metrics_text: str, prefix: str) -> int:
    line = next(
        line for line in metrics_text.splitlines() if line.startswith(prefix)
    )
    return int(line.rsplit(" ", 1)[1])


def _total_accesses(metrics_text: str) -> int:
    return _metric_value(
        metrics_text, 'fbox_index_accesses_total{mode="sorted"}'
    ) + _metric_value(metrics_text, 'fbox_index_accesses_total{mode="random"}')


# ----------------------------------------------------------------------
# Core planner
# ----------------------------------------------------------------------


class TestMultiTopK:
    def test_slices_match_independent_runs(self):
        cube = make_cube()
        results = multi_top_k(cube, "group", [1, 2, 3])
        for k, result in results.items():
            independent = top_k(cube, "group", k)
            assert result.entries == independent.entries

    def test_one_sweep_serves_every_k(self):
        cube = make_cube()
        results = multi_top_k(cube, "query", [1, 3])
        # Slices share the single sweep's frozen access counters.
        assert results[1].stats is results[3].stats

    def test_slice_rejects_non_positive_k(self):
        cube = make_cube()
        full = top_k(cube, "group", 3)
        from repro.exceptions import AlgorithmError

        with pytest.raises(AlgorithmError, match="positive"):
            slice_top_k(full, 0)

    def test_empty_ks_rejected(self):
        from repro.exceptions import AlgorithmError

        with pytest.raises(AlgorithmError, match="at least one"):
            multi_top_k(make_cube(), "group", [])

    def test_plan_groups_preserves_arrival_order(self):
        groups = plan_groups([("a", 1), ("b", 2), ("a", 3)])
        assert list(groups) == ["a", "b"]
        assert groups["a"] == [1, 3]

    def test_fbox_quantify_many_matches_quantify(
        self, small_marketplace_dataset, schema
    ):
        fbox = FBox.for_marketplace(small_marketplace_dataset, schema, measure="emd")
        many = fbox.quantify_many("group", [2, 5])
        for k in (2, 5):
            assert many[k].entries == fbox.quantify("group", k=k).entries

    def test_k_zero_rejected_like_top_k(self):
        from repro.exceptions import AlgorithmError

        cube = make_cube()
        with pytest.raises(AlgorithmError, match="positive"):
            multi_top_k(cube, "group", [0, 3])
        with pytest.raises(AlgorithmError, match="positive"):
            top_k(cube, "group", 0)

    def test_k_beyond_the_dimension_universe_clamps_like_top_k(self):
        cube = make_cube(n_groups=4)
        results = multi_top_k(cube, "group", [2, 50])
        assert len(results[50].entries) == 4  # clamped to the whole domain
        for k in (2, 50):
            assert results[k].entries == top_k(cube, "group", k).entries

    def test_member_filtered_in_every_cell_matches_sequential_algorithms(self):
        import numpy as np

        from repro.core.cube import UnfairnessCube
        from repro.core.fagin import naive_top_k

        cube = make_cube()
        values = cube.values.copy()
        values[1, :, :] = np.nan  # this group defines no cell anywhere
        holed = UnfairnessCube(cube.groups, cube.queries, cube.locations, values)
        universe = len(holed.groups)
        for k in (2, universe):
            swept = multi_top_k(holed, "group", [k])[k]
            assert swept.entries == top_k(holed, "group", k).entries
            # naive aggregates in a different summation order, so the
            # ranking must agree exactly but values only to float precision.
            naive = naive_top_k(holed, "group", k)
            assert swept.keys() == naive.keys()
            assert swept.values() == pytest.approx(naive.values())
        # The fully filtered member never ranks, even when k covers the
        # whole universe.
        full = multi_top_k(holed, "group", [universe])[universe]
        assert holed.groups[1] not in full.keys()
        assert len(full.entries) == universe - 1


# ----------------------------------------------------------------------
# Envelope validation (whole-batch 400s)
# ----------------------------------------------------------------------


class TestBatchEnvelope:
    def test_empty_batch_is_400(self, service):
        status, body = service.post("/batch", [])
        assert status == 400
        assert "empty" in body["error"]["message"]

    def test_oversized_batch_is_400(self, service, monkeypatch):
        monkeypatch.setattr(handlers_mod, "_MAX_BATCH_ITEMS", 4)
        status, body = service.post("/batch", [_quantify_item(k) for k in range(1, 6)])
        assert status == 400
        assert "exceeds 4" in body["error"]["message"]

    def test_non_array_body_is_400(self, service):
        status, body = service.post("/batch", {"not": "requests"})
        assert status == 400

    def test_wrapped_requests_object_is_accepted(self, service):
        status, body = service.post("/batch", {"requests": [_quantify_item(2)]})
        assert status == 200
        assert body["results"][0]["status"] == 200


# ----------------------------------------------------------------------
# Per-item isolation
# ----------------------------------------------------------------------


class TestItemIsolation:
    def test_bad_items_do_not_fail_the_batch(self, service):
        batch = [
            _quantify_item(3),
            _quantify_item(3, dataset="linkedin"),  # 404
            _quantify_item(3, dimension="color"),  # 422
            {"op": "teleport"},  # 422 (unknown op)
            {"dataset": "taskrabbit"},  # 400 (missing op)
            [1, 2, 3],  # 400 (non-object item)
        ]
        status, body = service.post("/batch", batch)
        assert status == 200
        assert body["kind"] == "batch"
        assert [result["status"] for result in body["results"]] == [
            200, 404, 422, 422, 400, 400,
        ]
        assert body["succeeded"] == 1
        assert body["failed"] == 5
        ok = body["results"][0]["body"]
        assert ok["kind"] == "quantification"
        assert len(ok["entries"]) == 3
        assert body["results"][1]["error"]["kind"] == "not_found"
        assert body["results"][2]["error"]["kind"] == "unprocessable"

    def test_mixed_ops_all_succeed(self, service, small_marketplace_dataset):
        query = small_marketplace_dataset.queries[0]
        location = small_marketplace_dataset.locations[0]
        batch = [
            _quantify_item(2),
            {
                "op": "compare",
                "dataset": "taskrabbit",
                "dimension": "group",
                "r1": "gender=Male",
                "r2": "gender=Female",
                "breakdown": "location",
            },
            {
                "op": "explain",
                "dataset": "taskrabbit",
                "group": "gender=Female",
                "query": query,
                "location": location,
            },
        ]
        status, body = service.post("/batch", batch)
        assert status == 200
        kinds = [result["body"]["kind"] for result in body["results"]]
        assert kinds == ["quantification", "comparison", "explanation"]


# ----------------------------------------------------------------------
# Shared sweeps: equivalence and cost
# ----------------------------------------------------------------------


class TestSharedSweep:
    def test_batch_results_match_independent_topk(
        self, service, small_marketplace_dataset, schema
    ):
        ks = list(range(1, 7))
        status, body = service.post("/batch", [_quantify_item(k) for k in ks])
        assert status == 200
        assert body["sweep_groups"] == 1
        assert body["shared_items"] == len(ks)

        fbox = FBox.for_marketplace(small_marketplace_dataset, schema, measure="emd")
        for k, result in zip(ks, body["results"]):
            expected = fbox.quantify("group", k=k)
            entries = result["body"]["entries"]
            assert [entry["name"] for entry in entries] == [
                str(key) for key in expected.keys()
            ]
            assert [entry["unfairness"] for entry in entries] == pytest.approx(
                expected.values()
            )

    def test_heterogeneous_batch_plans_one_group_per_key(self, service):
        batch = [
            _quantify_item(2),
            _quantify_item(4),
            _quantify_item(2, order="least"),
            _quantify_item(2, dimension="location"),
        ]
        status, body = service.post("/batch", batch)
        assert status == 200
        assert body["sweep_groups"] == 3  # (group,most), (group,least), (location,most)
        assert body["shared_items"] == 2  # only the (group,most) pair shares

    def test_cold_homogeneous_batch_builds_one_family_with_fewer_accesses(
        self, start_service, small_marketplace_dataset, small_search_dataset
    ):
        """The acceptance criterion: 16 grid points ≈ 1 build + 1 sweep."""
        requests = [_quantify_item(k) for k in range(1, 17)]

        def boot():
            registry = _registry(small_marketplace_dataset, small_search_dataset)
            return ServiceHarness(
                start_service(registry=registry, request_timeout=120.0)
            )

        batched = boot()
        status, body = batched.post("/batch", requests)
        assert status == 200
        assert all(result["status"] == 200 for result in body["results"])
        _, batched_metrics = batched.get("/metrics")

        sequential = boot()
        for item in requests:
            payload = {key: value for key, value in item.items() if key != "op"}
            status, document = sequential.post("/quantify", payload)
            assert status == 200
            assert document["cached"] is False
        _, sequential_metrics = sequential.get("/metrics")

        assert _metric_value(batched_metrics, "fbox_index_family_builds_total") == 1
        assert _metric_value(batched_metrics, "fbox_cube_builds_total") == 1
        batched_accesses = _total_accesses(batched_metrics)
        sequential_accesses = _total_accesses(sequential_metrics)
        assert batched_accesses > 0
        assert batched_accesses < sequential_accesses

    def test_batch_metrics_exposed(self, service):
        service.post("/batch", [_quantify_item(1), _quantify_item(2)])
        _, text = service.get("/metrics")
        assert "fbox_batches_total 1" in text
        assert 'fbox_batch_items_total{kind="all"} 2' in text
        assert 'fbox_batch_items_total{kind="shared_sweep"} 2' in text
        assert "fbox_batch_sweep_groups_total 1" in text


# ----------------------------------------------------------------------
# Cache interplay
# ----------------------------------------------------------------------


class TestBatchCaching:
    def test_batch_warms_the_single_endpoint_cache(self, service):
        service.post("/batch", [_quantify_item(3)])
        status, body = service.post(
            "/quantify", {"dataset": "taskrabbit", "dimension": "group", "k": 3}
        )
        assert status == 200
        assert body["cached"] is True

    def test_single_endpoint_warms_the_batch(self, service):
        service.post(
            "/quantify", {"dataset": "taskrabbit", "dimension": "group", "k": 2}
        )
        status, body = service.post("/batch", [_quantify_item(2), _quantify_item(4)])
        assert status == 200
        first, second = body["results"]
        assert first["body"]["cached"] is True
        assert second["body"]["cached"] is False
        # The warm item never reached the planner, so no sweep was shared.
        assert body["shared_items"] == 0

    def test_duplicate_items_share_one_computation(self, service):
        status, body = service.post("/batch", [_quantify_item(2), _quantify_item(2)])
        assert status == 200
        first, second = body["results"]
        assert first["body"]["entries"] == second["body"]["entries"]


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------


class TestBatchConcurrency:
    def test_parallel_batches_build_one_cube(
        self, start_service, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        harness = ServiceHarness(
            start_service(registry=registry, request_timeout=120.0)
        )
        batch = [_quantify_item(k) for k in range(1, 9)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(
                pool.map(lambda _: harness.post("/batch", batch), range(8))
            )

        assert [status for status, _ in outcomes] == [200] * 8
        answers = {
            tuple(
                tuple(
                    (entry["name"], entry["unfairness"])
                    for entry in result["body"]["entries"]
                )
                for result in body["results"]
            )
            for _, body in outcomes
        }
        assert len(answers) == 1  # every batch saw identical slices
        # /metrics merges worker build counts under sharding, so the scrape
        # is the truth for "exactly one cube was built" on every backend.
        _, text = harness.get("/metrics")
        assert "fbox_cube_builds_total 1" in text
