"""The column kernel: ``engine.column`` against the per-cell path, bit for bit.

``UnfairnessCube.compute``/``compute_delta`` and the ingest trend ring only
ever call ``engine.column(groups, query, location)``.  The per-cell path
(``defined_for`` then ``unfairness``) is the plain reading of the paper's
definitions, so every kernel value must equal it byte for byte — NaN exactly
where the cell is undefined.  The service's end-to-end oracles share the
kernel, so this is the test that can catch drift in it.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
import pytest

from repro.core.fbox import FBox
from repro.core.groups import group_lattice
from repro.core.measures.emd import emd
from repro.core.measures.kendall import kendall_tau_distance_reference
from repro.core.measures.base import (
    GROUP_RANKING,
    RANKED_LIST,
    measures_for_family,
    register_measure,
    unregister_measure,
)
from repro.core.rankings import RankedList
from repro.core.unfairness import MarketplaceUnfairness, SearchEngineUnfairness
from repro.data.schema import (
    MarketplaceDataset,
    MarketplaceObservation,
    SearchDataset,
    SearchObservation,
    SearchUser,
    WorkerProfile,
)
from repro.scenarios.build import build_scenario
from repro.scenarios.presets import get_scenario
from repro.stats.histograms import DEFAULT_BINS, UnitHistogram

PROFILES = {
    "fb": {"gender": "Female", "ethnicity": "Black"},
    "fw": {"gender": "Female", "ethnicity": "White"},
    "fa": {"gender": "Female", "ethnicity": "Asian"},
    "mb": {"gender": "Male", "ethnicity": "Black"},
    "mw": {"gender": "Male", "ethnicity": "White"},
}
# (q1, l1): women only, so every male group and "Female" itself (no
# populated comparable) are undefined; (q2, l1): one worker, a column with
# no defined cell; (q2, l2) is never observed.
RANKINGS = {
    ("q1", "l1"): ("fb", "fw", "fa"),
    ("q1", "l2"): ("mb", "fb", "mw", "fa"),
    ("q2", "l1"): ("fb",),
}
PAIRS = [(q, l) for q in ("q1", "q2") for l in ("l1", "l2")]


def _per_cell(engine, groups, query, location) -> bytes:
    values = [
        engine.unfairness(group, query, location)
        if engine.defined_for(group, query, location)
        else math.nan
        for group in groups
    ]
    return np.asarray(values, dtype=float).tobytes()


def _kernel(engine, groups, query, location) -> bytes:
    return np.asarray(engine.column(groups, query, location), dtype=float).tobytes()


def _assert_parity(engine, groups, pairs) -> int:
    """Compare every pair's column; returns how many cells were undefined."""
    undefined = 0
    for query, location in pairs:
        kernel = _kernel(engine, groups, query, location)
        assert kernel == _per_cell(engine, groups, query, location), (query, location)
        undefined += int(np.isnan(np.frombuffer(kernel)).sum())
    return undefined


def _small_marketplace() -> MarketplaceDataset:
    return MarketplaceDataset(
        workers=[WorkerProfile(worker, profile) for worker, profile in PROFILES.items()],
        observations=[
            MarketplaceObservation(
                query=query,
                location=location,
                ranking=RankedList(
                    items=ranking,
                    scores={worker: 0.9 - 0.2 * i for i, worker in enumerate(ranking)},
                ),
            )
            for (query, location), ranking in RANKINGS.items()
        ],
    )


def _small_search() -> SearchDataset:
    results = [("a", "b", "c", "d"), ("b", "a", "d", "e"), ("c", "d", "a", "b"),
               ("a", "c", "e", "f"), ("d", "b", "a", "c")]
    return SearchDataset(
        users=[SearchUser(user, profile) for user, profile in PROFILES.items()],
        observations=[
            SearchObservation(
                query=query,
                location=location,
                results_by_user={
                    user: RankedList(items=results[position])
                    for position, user in enumerate(users)
                },
            )
            for (query, location), users in RANKINGS.items()
        ],
    )


@pytest.fixture(scope="module")
def paper_taskrabbit():
    return build_scenario(get_scenario("paper_taskrabbit"))


@pytest.fixture(scope="module")
def paper_google():
    return build_scenario(get_scenario("paper_google"))


def _observed_pairs(dataset) -> list[tuple[str, str]]:
    return [(o.query, o.location) for o in dataset.observations()]


@pytest.mark.parametrize("measure", measures_for_family(GROUP_RANKING))
def test_marketplace_kernel_matches_per_cell_on_paper_taskrabbit(
    schema, paper_taskrabbit, measure
):
    engine = MarketplaceUnfairness(paper_taskrabbit, schema, measure=measure)
    _assert_parity(engine, group_lattice(schema), _observed_pairs(paper_taskrabbit))


@pytest.mark.parametrize("measure", measures_for_family(RANKED_LIST))
def test_search_kernel_matches_per_cell_on_paper_google(schema, paper_google, measure):
    engine = SearchEngineUnfairness(paper_google, schema, measure=measure)
    _assert_parity(engine, group_lattice(schema), _observed_pairs(paper_google))


@pytest.mark.parametrize("measure", measures_for_family(GROUP_RANKING))
def test_marketplace_kernel_on_undefined_cells(schema, measure):
    engine = MarketplaceUnfairness(_small_marketplace(), schema, measure=measure)
    groups = group_lattice(schema)
    undefined = _assert_parity(engine, groups, PAIRS)
    # Both unobserved-pair columns plus the partly-undefined one.
    assert undefined > 2 * len(groups)
    assert all(math.isnan(v) for v in engine.column(groups, "q2", "l2"))


@pytest.mark.parametrize("measure", measures_for_family(RANKED_LIST))
def test_search_kernel_on_undefined_cells(schema, measure):
    engine = SearchEngineUnfairness(_small_search(), schema, measure=measure)
    groups = group_lattice(schema)
    undefined = _assert_parity(engine, groups, PAIRS)
    assert undefined > 2 * len(groups)
    assert all(math.isnan(v) for v in engine.column(groups, "q2", "l2"))


def _missing_from_right(left: RankedList, right: RankedList) -> float:
    """An asymmetric DIST: rank-weighted share of ``left`` absent from ``right``."""
    present = right.item_set()
    return sum(1 / rank for rank, item in enumerate(left.items, 1) if item not in present)


@pytest.fixture
def asymmetric_measure():
    register_measure("asym-test", lambda: _missing_from_right, family=RANKED_LIST)
    yield "asym-test"
    unregister_measure("asym-test")


def test_search_kernel_keeps_user_pairs_ordered(schema, asymmetric_measure):
    """``DIST(E(u), E(u'))`` is memoised per *ordered* pair: an asymmetric
    measure would expose a kernel that reused ``DIST(E(u'), E(u))``."""
    engine = SearchEngineUnfairness(_small_search(), schema, measure=asymmetric_measure)
    _assert_parity(engine, group_lattice(schema), PAIRS)


def test_kernel_follows_the_given_group_order(schema):
    engine = MarketplaceUnfairness(_small_marketplace(), schema, measure="emd")
    groups = group_lattice(schema)
    forward = engine.column(groups, "q1", "l2")
    backward = engine.column(groups[::-1], "q1", "l2")
    assert np.asarray(backward).tobytes() == np.asarray(forward[::-1]).tobytes()


# ----------------------------------------------------------------------
# The served measure kernels against their reference arithmetic, cube-wide
# ----------------------------------------------------------------------


def _np_histogram(ranking: RankedList, members) -> UnitHistogram:
    scores = [ranking.relevance(item) for item in members]
    counts, _ = np.histogram(scores, bins=DEFAULT_BINS, range=(0.0, 1.0))
    return UnitHistogram(counts=counts.astype(float), bins=DEFAULT_BINS)


class _HistogramEmd:
    """§3.3.1 the plain way: ``np.histogram`` per group, then :func:`emd`."""

    def group_value(self, ranking, group_members, comparable_members):
        own = _np_histogram(ranking, group_members)
        return statistics.fmean(
            emd(own, _np_histogram(ranking, members))
            for members in comparable_members.values()
        )


@pytest.fixture
def reference_measures():
    register_measure("emd-histogram-test", _HistogramEmd, family=GROUP_RANKING)
    register_measure(
        "kendall-reference-test",
        lambda: kendall_tau_distance_reference,
        family=RANKED_LIST,
    )
    yield "emd-histogram-test", "kendall-reference-test"
    unregister_measure("emd-histogram-test")
    unregister_measure("kendall-reference-test")


def _cube_bytes(fbox: FBox) -> bytes:
    return fbox.cube.values.tobytes()


def test_served_cubes_equal_reference_kernels(
    schema, paper_taskrabbit, paper_google, reference_measures
):
    """The cached-bin EMD and closed-form Kendall kernels build the same
    cubes, byte for byte, as ``np.histogram`` + :func:`emd` and the
    case-by-case Kendall reference."""
    emd_reference, kendall_reference = reference_measures
    served = FBox.for_marketplace(paper_taskrabbit, schema, measure="emd")
    reference = FBox.for_marketplace(paper_taskrabbit, schema, measure=emd_reference)
    assert _cube_bytes(served) == _cube_bytes(reference)
    assert not np.isnan(served.cube.values).all()

    served = FBox.for_search(paper_google, schema, measure="kendall")
    reference = FBox.for_search(paper_google, schema, measure=kendall_reference)
    assert _cube_bytes(served) == _cube_bytes(reference)
    assert not np.isnan(served.cube.values).all()
