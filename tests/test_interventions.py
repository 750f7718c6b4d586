"""What-if interventions: FA*IR re-ranking, the exposure LP, and /v1/whatif.

Three layers under test:

* the core re-rankers (`fair_rerank`, `exposure_lp_rerank`) and their
  mathematical guarantees — prefix fairness, double stochasticity, weak
  improvement, determinism;
* the intervention registry and `FBox.whatif`;
* the service endpoint, including byte-identity across every core ×
  execution-backend combination and the robustness of an
  intervention's benefit under position-biased click feedback.
"""

from __future__ import annotations

import json
import math
import random
import urllib.request

import numpy as np
import pytest

from repro.core.attributes import default_schema
from repro.core.fbox import FBox
from repro.core.groups import Group
from repro.core.interventions import (
    InterventionResult,
    _exposure_lp_matrix,
    apply_intervention,
    available_interventions,
    exposure_lp_rerank,
    fair_rerank,
    intervention_info,
    measure_deltas,
    register_intervention,
)
from repro.core.measures.base import (
    GROUP_RANKING,
    register_measure,
    unregister_measure,
)
from repro.core.measures.exposure import exposure_deviation
from repro.core.measures.fair import DEFAULT_ALPHA, FairMeasure, prefix_failures
from repro.core.rankings import RankedList
from repro.exceptions import MeasureError
from repro.data.schema import MarketplaceDataset
from repro.service.registry import DatasetRegistry, DatasetSpec

from tests.test_service import ServiceHarness


# ----------------------------------------------------------------------
# Ranking builders
# ----------------------------------------------------------------------


def _ranking(n: int, protected_at: list[int], scores: bool = False):
    """A ranking of ``n`` items, the protected group at the given ranks."""
    items = [f"w{i}" for i in range(n)]
    protected = [items[i] for i in protected_at]
    score_map = None
    if scores:
        score_map = {item: 1.0 - 0.9 * i / n for i, item in enumerate(items)}
    return RankedList(items, score_map), protected


def _degrade(ranking: RankedList, members) -> RankedList:
    """Push every group member to the bottom, keeping relative order."""
    mem = set(members)
    return RankedList(
        [w for w in ranking.items if w not in mem]
        + [w for w in ranking.items if w in mem],
        ranking.scores,
    )


def _comparables(ranking: RankedList, protected) -> dict[str, list[str]]:
    return {"rest": [item for item in ranking.items if item not in set(protected)]}


# ----------------------------------------------------------------------
# FA*IR greedy re-ranking
# ----------------------------------------------------------------------


class TestFairRerank:
    @pytest.mark.parametrize(
        "n,protected_at,alpha",
        [
            (20, list(range(14, 20)), DEFAULT_ALPHA),  # stacked at the bottom
            (30, list(range(20, 30)), 0.05),
            (50, [48, 49], DEFAULT_ALPHA),  # tiny group
            (12, [0, 1, 2, 3], 0.2),  # already on top
        ],
    )
    def test_fair_at_every_prefix(self, n, protected_at, alpha):
        ranking, protected = _ranking(n, protected_at)
        out = fair_rerank(ranking, protected, alpha=alpha)
        p = len(protected) / n
        assert prefix_failures(out, frozenset(protected), p, alpha) == 0
        # and the registered measure agrees: exactly fair
        measure = FairMeasure(alpha=alpha)
        assert measure.group_value(out, protected, {}) == 0.0

    def test_preserves_within_group_order_and_items(self):
        ranking, protected = _ranking(25, list(range(18, 25)))
        out = fair_rerank(ranking, protected)
        assert sorted(out.items) == sorted(ranking.items)
        mem = set(protected)
        for group in (mem, set(ranking.items) - mem):
            original = [w for w in ranking.items if w in group]
            reranked = [w for w in out.items if w in group]
            assert reranked == original

    def test_scores_survive_the_rerank(self):
        ranking, protected = _ranking(16, [12, 13, 14, 15], scores=True)
        out = fair_rerank(ranking, protected)
        assert out.scores == ranking.scores

    def test_empty_ranking_is_an_error(self):
        with pytest.raises(MeasureError, match="empty"):
            fair_rerank(RankedList([]), ["w0"])

    def test_trivial_groups_return_the_original(self):
        ranking, _ = _ranking(8, [])
        assert fair_rerank(ranking, []).items == ranking.items
        assert fair_rerank(ranking, list(ranking.items)).items == ranking.items

    def test_explicit_p_tightens_the_requirement(self):
        ranking, protected = _ranking(20, list(range(16, 20)))
        out = fair_rerank(ranking, protected, p=0.4)
        # with a demanded share (0.4) above the actual (0.2), the greedy
        # pass still satisfies every mtable threshold it can: all the
        # protected items are pulled forward.
        positions = [out.rank(w) for w in protected]
        baseline = [ranking.rank(w) for w in protected]
        assert max(positions) < max(baseline)


# ----------------------------------------------------------------------
# The exposure LP
# ----------------------------------------------------------------------


class TestExposureLP:
    @pytest.mark.parametrize("scored", [False, True], ids=["proxy", "scored"])
    def test_lp_optimum_is_doubly_stochastic(self, scored):
        ranking, protected = _ranking(15, list(range(10, 15)), scores=scored)
        matrix = _exposure_lp_matrix(
            ranking, protected, _comparables(ranking, protected)
        )
        assert matrix is not None
        assert matrix.shape == (15, 15)
        assert np.allclose(matrix.sum(axis=0), 1.0, atol=1e-7)
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-7)
        assert matrix.min() >= -1e-9

    @pytest.mark.parametrize("scored", [False, True], ids=["proxy", "scored"])
    @pytest.mark.parametrize("trial", range(3))
    def test_weakly_improves_exposure_deviation(self, scored, trial):
        rng = random.Random(trial)
        items = [f"w{i}" for i in range(18)]
        rng.shuffle(items)
        scores = (
            {item: rng.uniform(0.1, 1.0) for item in items} if scored else None
        )
        ranking = RankedList(items, scores)
        protected = rng.sample(items, 6)
        comparables = _comparables(ranking, protected)
        before = exposure_deviation(ranking, protected, comparables)
        out = exposure_lp_rerank(ranking, protected, comparables, seed=trial)
        after = exposure_deviation(out, protected, comparables)
        assert after <= before + 1e-9
        assert sorted(out.items) == sorted(ranking.items)

    def test_strictly_repairs_a_degraded_ranking(self):
        ranking, protected = _ranking(30, list(range(8)))
        degraded = _degrade(ranking, protected)
        comparables = _comparables(ranking, protected)
        before = exposure_deviation(degraded, protected, comparables)
        out = exposure_lp_rerank(degraded, protected, comparables)
        after = exposure_deviation(out, protected, comparables)
        assert before > 0.05  # the degradation is material
        assert after < before / 2  # and the LP substantially repairs it

    def test_scored_rankings_use_true_relevance(self):
        # high-scoring protected items stuck at the bottom: with true
        # scores their relevance share is large, so the LP must pull
        # them up even though the rank proxy would say they belong there.
        items = [f"w{i}" for i in range(12)]
        scores = {item: 0.95 - 0.07 * i for i, item in enumerate(items)}
        protected = items[8:]
        for item in protected:
            scores[item] = 0.9
        ranking = RankedList(items, scores)
        comparables = _comparables(ranking, protected)
        before = exposure_deviation(ranking, protected, comparables)
        out = exposure_lp_rerank(ranking, protected, comparables)
        after = exposure_deviation(out, protected, comparables)
        assert after < before
        assert min(out.rank(w) for w in protected) < min(
            ranking.rank(w) for w in protected
        )

    def test_deterministic_under_seed(self):
        ranking, protected = _ranking(20, list(range(13, 20)))
        degraded = _degrade(ranking, protected)
        comparables = _comparables(ranking, protected)
        first = exposure_lp_rerank(degraded, protected, comparables, seed=7)
        second = exposure_lp_rerank(degraded, protected, comparables, seed=7)
        assert first.items == second.items

    def test_empty_inputs_are_errors(self):
        with pytest.raises(MeasureError, match="empty"):
            exposure_lp_rerank(RankedList([]), ["w0"], {})
        ranking, _ = _ranking(5, [])
        with pytest.raises(MeasureError, match="no members"):
            exposure_lp_rerank(ranking, [], {})


# ----------------------------------------------------------------------
# Registry + report plumbing
# ----------------------------------------------------------------------


class TestInterventionRegistry:
    def test_both_canonical_interventions_are_registered(self):
        assert {"fair", "exposure_lp"} <= set(available_interventions())

    def test_unknown_intervention_lists_the_alternatives(self):
        with pytest.raises(MeasureError, match="exposure_lp"):
            intervention_info("nope")

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(MeasureError, match="already registered"):
            register_intervention("fair", lambda *a, **k: None)

    def test_describe_carries_the_option_schema(self):
        info = intervention_info("fair")
        document = info.describe()
        assert document["name"] == "fair"
        assert {option["name"] for option in document["options"]} == {"alpha", "p"}

    def test_apply_intervention_filters_foreign_options(self):
        ranking, protected = _ranking(15, list(range(10, 15)))
        # `seed` belongs to exposure_lp, `alpha` to fair; one option bag
        # must serve both without either raising on the other's keys.
        result = apply_intervention(
            "fair", ranking, protected, _comparables(ranking, protected),
            alpha=0.1, p=None, seed=3,
        )
        assert isinstance(result, InterventionResult)
        assert result.intervention == "fair"

    def test_report_covers_every_group_ranking_measure(self):
        ranking, protected = _ranking(20, list(range(14, 20)))
        degraded = _degrade(ranking, protected)
        comparables = _comparables(ranking, protected)
        result = apply_intervention("fair", degraded, protected, comparables)
        assert {"emd", "exposure", "fair"} <= set(result.before)
        assert set(result.before) == set(result.after)
        assert result.after["fair"] == 0.0
        assert result.delta("fair") == -result.before["fair"]
        assert result.delta("missing") is None
        assert result.moved > 0

    def test_measure_deltas_skips_undefined_cells(self):
        ranking, protected = _ranking(6, [4, 5])
        before, after = measure_deltas(ranking, ranking, protected, {})
        assert before == after  # identical rankings, and nothing crashed


# ----------------------------------------------------------------------
# FBox.whatif
# ----------------------------------------------------------------------


class TestFBoxWhatif:
    def test_marketplace_whatif_reports_deltas(
        self, small_marketplace_dataset, schema
    ):
        fbox = FBox.for_marketplace(
            small_marketplace_dataset, schema, measure="exposure"
        )
        result = fbox.whatif(
            Group({"gender": "Female"}), "Handyman", "Birmingham, UK", "fair"
        )
        assert result.after["fair"] == 0.0
        assert sorted(result.reranked.items) == sorted(result.original.items)

    def test_search_engines_cannot_whatif(self, small_search_dataset, schema):
        fbox = FBox.for_search(small_search_dataset, schema, measure="kendall")
        with pytest.raises(MeasureError, match="group-ranking"):
            fbox.whatif(Group({"gender": "Female"}), "yard work", "Boston, MA", "fair")


# ----------------------------------------------------------------------
# POST /v1/whatif over the live service
# ----------------------------------------------------------------------


def _whatif_payload(**overrides):
    payload = {
        "dataset": "taskrabbit",
        "group": "gender=Female",
        "query": "Handyman",
        "location": "Birmingham, UK",
        "intervention": "fair",
    }
    payload.update(overrides)
    return payload


@pytest.fixture
def whatif_service(start_service, small_marketplace_dataset, small_search_dataset):
    from tests.test_service import _registry

    registry = _registry(small_marketplace_dataset, small_search_dataset)
    return ServiceHarness(start_service(registry=registry, request_timeout=60.0))


class TestWhatifEndpoint:
    def test_whatif_answers_and_caches(self, whatif_service):
        status, body = whatif_service.post("/v1/whatif", _whatif_payload())
        assert status == 200
        assert body["kind"] == "whatif"
        assert body["cached"] is False
        assert body["intervention"] == "fair"
        assert sorted(body["reranked"]) == sorted(body["original"])
        assert body["measures"]["fair"]["after"] == 0.0
        for entry in body["measures"].values():
            assert entry["delta"] == pytest.approx(entry["after"] - entry["before"])
        status, again = whatif_service.post("/v1/whatif", _whatif_payload())
        assert status == 200 and again["cached"] is True

    def test_exposure_lp_weakly_improves_over_http(self, whatif_service):
        status, body = whatif_service.post(
            "/v1/whatif", _whatif_payload(intervention="exposure_lp", seed=3)
        )
        assert status == 200
        exposure = body["measures"]["exposure"]
        assert exposure["after"] <= exposure["before"] + 1e-9

    def test_missing_field_is_400(self, whatif_service):
        payload = _whatif_payload()
        del payload["group"]
        status, body = whatif_service.post("/v1/whatif", payload)
        assert status == 400 and "group" in body["error"]["message"]

    def test_unknown_dataset_is_404(self, whatif_service):
        status, _ = whatif_service.post(
            "/v1/whatif", _whatif_payload(dataset="missing")
        )
        assert status == 404

    def test_unknown_intervention_is_422(self, whatif_service):
        status, body = whatif_service.post(
            "/v1/whatif", _whatif_payload(intervention="bogus")
        )
        assert status == 422 and "bogus" in body["error"]["message"]

    def test_search_dataset_is_422(self, whatif_service):
        status, body = whatif_service.post(
            "/v1/whatif",
            _whatif_payload(dataset="google", query="yard work",
                            location="Boston, MA"),
        )
        assert status == 422 and "group-ranking" in body["error"]["message"]

    def test_bad_group_and_undefined_cell_are_422(self, whatif_service):
        status, _ = whatif_service.post(
            "/v1/whatif", _whatif_payload(group="gender=Purple")
        )
        assert status == 422
        status, _ = whatif_service.post(
            "/v1/whatif", _whatif_payload(query="Nonexistent Task")
        )
        assert status == 422

    def test_schema_lists_interventions_and_the_endpoint(self, whatif_service):
        status, body = whatif_service.get_json("/v1/schema")
        assert status == 200
        names = [entry["name"] for entry in body["interventions"]]
        assert names == available_interventions()
        paths = {entry["path"] for entry in body["endpoints"]}
        assert "/v1/whatif" in paths


# ----------------------------------------------------------------------
# Byte-identity: dict vs columnar core, both transports, both executors
# ----------------------------------------------------------------------


class TestWhatifParity:
    def test_whatif_is_byte_identical_across_cores(
        self, start_service, small_marketplace_dataset, small_search_dataset
    ):
        from tests.test_service import _registry

        payloads = [
            _whatif_payload(),
            _whatif_payload(intervention="exposure_lp", seed=5),
            _whatif_payload(intervention="fair", alpha=0.2),
        ]
        answers = {}
        for core in ("dict", "columnar"):
            registry = _registry(small_marketplace_dataset, small_search_dataset)
            harness = ServiceHarness(
                start_service(registry=registry, core=core, request_timeout=60.0)
            )
            answers[core] = [
                harness.post("/v1/whatif", payload) for payload in payloads
            ]
        assert answers["dict"] == answers["columnar"]


# ----------------------------------------------------------------------
# Satellite: a dynamically registered measure is immediately servable
# ----------------------------------------------------------------------


class _ToyGapMeasure:
    """Max-minus-min exposure gap — a minimal group-ranking measure."""

    name = "toygap"

    def group_value(self, ranking, group_members, comparable_members):
        exposures = [ranking.exposure(item) for item in group_members]
        if not exposures:
            raise MeasureError("no members")
        return (max(exposures) - min(exposures)) / max(exposures)

    __call__ = group_value


class TestDynamicMeasureRegistration:
    def test_new_measure_serves_quantify_and_schema_without_service_edits(
        self, start_service, small_marketplace_dataset, small_search_dataset
    ):
        from tests.test_service import _registry

        registry = _registry(small_marketplace_dataset, small_search_dataset)
        # in-process execution only: forked shard workers re-import the
        # measure registry and would not see a parent-side registration.
        harness = ServiceHarness(
            start_service(registry=registry, shards=0, request_timeout=60.0)
        )
        register_measure(
            "toygap",
            _ToyGapMeasure,
            family=GROUP_RANKING,
            description="max-min exposure gap (test-only)",
        )
        try:
            status, body = harness.post(
                "/v1/quantify",
                {"dataset": "taskrabbit", "measure": "toygap",
                 "dimension": "group", "k": 3},
            )
            assert status == 200
            assert body["measure"] == "toygap"
            assert len(body["entries"]) > 0

            status, schema_doc = harness.get_json("/v1/schema")
            assert status == 200
            names = [entry["name"] for entry in schema_doc["measures"]]
            assert "toygap" in names
            quantify_fields = next(
                entry for entry in schema_doc["endpoints"]
                if entry["path"] == "/v1/quantify"
            )["request_fields"]
            measure_field = next(
                field for field in quantify_fields if field["name"] == "measure"
            )
            assert "toygap" in measure_field["enum"]
        finally:
            unregister_measure("toygap")


# ----------------------------------------------------------------------
# Satellite: the intervention's benefit survives biased click feedback
# ----------------------------------------------------------------------


def _simulate_clicks(items: list[str], seed: int) -> list[str]:
    """Position-biased click re-ranking (Suhr et al.'s feedback loop).

    Each item is clicked with probability proportional to its exposure
    ``1/ln(1+rank)``; items are re-ranked by click count with rank as the
    tie-break, which is how repeated user feedback would re-order the list.
    """
    rng = random.Random(seed)
    clicks = {
        item: sum(
            1
            for _ in range(40)
            if rng.random() < 1.0 / math.log(1.0 + rank)
        )
        for rank, item in enumerate(items, start=1)
    }
    return sorted(items, key=lambda item: (-clicks[item], items.index(item)))


class TestClickFeedbackRobustness:
    def test_whatif_improvement_survives_an_ingest_round_trip(
        self, start_service, small_marketplace_dataset, schema
    ):
        dataset = MarketplaceDataset(
            workers=small_marketplace_dataset.workers.values(),
            observations=small_marketplace_dataset.observations(),
        )
        registry = DatasetRegistry()
        registry.register(
            DatasetSpec(
                name="taskrabbit",
                site="taskrabbit",
                loader=lambda: dataset,
                description="click-robustness copy",
            )
        )
        harness = ServiceHarness(
            start_service(registry=registry, shards=0, request_timeout=60.0)
        )
        query, location = "Handyman", "Birmingham, UK"
        group = Group({"gender": "Female"})
        members = dataset.members_in_ranking(
            group, dataset.observation(query, location).ranking
        )
        # materialize the exposure F-Box so every ingest below records a
        # trend point for it (trends replay only live measures).
        status, _ = harness.post(
            "/v1/quantify",
            {"dataset": "taskrabbit", "dimension": "group", "measure": "exposure"},
        )
        assert status == 200

        # batch 1: a degraded ranking (the group pushed to the bottom).
        degraded = _degrade(dataset.observation(query, location).ranking, members)
        status, _ = harness.post(
            "/v1/observations",
            {"dataset": "taskrabbit", "batch_id": "degraded",
             "observations": [{"query": query, "location": location,
                               "ranking": list(degraded.items)}]},
        )
        assert status == 200

        # the intervention repairs it...
        status, body = harness.post(
            "/v1/whatif",
            _whatif_payload(query=query, location=location,
                            intervention="exposure_lp"),
        )
        assert status == 200
        exposure = body["measures"]["exposure"]
        assert exposure["after"] < exposure["before"]

        # ...and the repair survives position-biased clicks: re-ingest the
        # clicked-on reranked list and the trend still shows the drop.
        clicked = _simulate_clicks(body["reranked"], seed=17)
        status, _ = harness.post(
            "/v1/observations",
            {"dataset": "taskrabbit", "batch_id": "clicked",
             "observations": [{"query": query, "location": location,
                               "ranking": clicked}]},
        )
        assert status == 200

        status, trends = harness.get_json(
            "/v1/trends?dataset=taskrabbit&measure=exposure"
            "&group=gender%3DFemale&query=Handyman"
            "&location=Birmingham%2C%20UK"
        )
        assert status == 200
        points = trends["points"]
        assert len(points) >= 2
        assert points[-1]["value"] < points[-2]["value"]
