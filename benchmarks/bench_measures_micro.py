"""Microbenchmarks of the four unfairness measures.

Besides the per-measure latency probes, this module prices the fast
kernels (the closed-form Kendall pair count, the shared-binning EMD) against
their loop-based reference implementations (the executable specifications
the fast paths are equivalence-checked against) and gates the rewrite's
reason to exist: the Kendall ``K^(p)`` kernel must beat its reference by at
least 2x on realistic list sizes.  Writes
``benchmarks/results/measures_micro.txt``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import pytest

from _util import emit
from repro.core.measures.emd import emd_from_values, emd_from_values_reference
from repro.core.measures.exposure import exposure_deviation
from repro.core.measures.jaccard import JaccardMeasure
from repro.core.measures.kendall import (
    kendall_tau_distance,
    kendall_tau_distance_reference,
)
from repro.core.rankings import RankedList
from repro.experiments.report import render_table

KENDALL_SPEEDUP_FLOOR = 2.0

_RNG = np.random.default_rng(0)
_LEFT = RankedList([f"r{i}" for i in _RNG.permutation(20)])
_RIGHT = RankedList([f"r{i}" for i in _RNG.permutation(24)[:20]])
_RANKING = RankedList([f"w{i}" for i in range(50)])
_GROUP = [f"w{i}" for i in range(40, 50)]
_OTHERS = {"rest": [f"w{i}" for i in range(40)]}
_SCORES_A = list(_RNG.uniform(0.0, 0.6, size=12))
_SCORES_B = list(_RNG.uniform(0.3, 1.0, size=30))


def test_kendall_micro(benchmark):
    value = benchmark(kendall_tau_distance, _LEFT, _RIGHT)
    assert 0.0 <= value <= 1.0


def test_jaccard_micro(benchmark):
    measure = JaccardMeasure()
    value = benchmark(measure, _LEFT, _RIGHT)
    assert 0.0 <= value <= 1.0


def test_emd_micro(benchmark):
    value = benchmark(emd_from_values, _SCORES_A, _SCORES_B)
    assert 0.0 <= value <= 1.0


def test_exposure_micro(benchmark):
    value = benchmark(exposure_deviation, _RANKING, _GROUP, _OTHERS)
    assert value >= 0.0


# ----------------------------------------------------------------------
# Fast kernels vs their reference implementations
# ----------------------------------------------------------------------


def _best_seconds(fn, *args, loops: int = 20, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = perf_counter()
        for _ in range(loops):
            fn(*args)
        best = min(best, (perf_counter() - started) / loops)
    return best


def test_kernels_vs_reference():
    """The measure-kernel gate: the closed-form Kendall kernel must be >= 2x
    its case-by-case reference on 200-item lists, and both fast paths must
    agree with their references to the last bit."""
    rng = np.random.default_rng(1)
    left = RankedList([f"r{i}" for i in rng.permutation(200)])
    right = RankedList([f"r{i}" for i in rng.permutation(240)[:200]])
    scores_a = list(rng.uniform(0.0, 0.6, size=300))
    scores_b = list(rng.uniform(0.3, 1.0, size=500))

    assert kendall_tau_distance(left, right) == (
        kendall_tau_distance_reference(left, right)
    )
    assert emd_from_values(scores_a, scores_b) == (
        emd_from_values_reference(scores_a, scores_b)
    )

    kendall_fast = _best_seconds(kendall_tau_distance, left, right)
    kendall_ref = _best_seconds(
        kendall_tau_distance_reference, left, right, loops=3
    )
    emd_fast = _best_seconds(emd_from_values, scores_a, scores_b, loops=50)
    emd_ref = _best_seconds(
        emd_from_values_reference, scores_a, scores_b, loops=50
    )
    kendall_speedup = kendall_ref / kendall_fast
    emd_speedup = emd_ref / emd_fast
    emit(
        "measures_micro",
        render_table(
            "Fast measure kernels vs reference implementations"
            " (best-of timings)",
            ("kernel", "fast us", "reference us", "speedup"),
            [
                (
                    "kendall n=200",
                    kendall_fast * 1e6,
                    kendall_ref * 1e6,
                    kendall_speedup,
                ),
                ("emd 300v500", emd_fast * 1e6, emd_ref * 1e6, emd_speedup),
            ],
            decimals=2,
        ),
    )
    assert kendall_speedup >= KENDALL_SPEEDUP_FLOOR, (
        f"kendall kernel is only {kendall_speedup:.2f}x its reference "
        f"(floor {KENDALL_SPEEDUP_FLOOR}x)"
    )
    assert emd_speedup > 0.8, (
        f"the fast EMD path regressed below its reference "
        f"({emd_speedup:.2f}x)"
    )
