"""Earth Mover's Distance on unit-interval histograms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

from repro.core.measures.emd import EmdMeasure, emd, emd_from_values
from repro.exceptions import MeasureError
from repro.stats.histograms import UnitHistogram

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
samples = st.lists(unit_floats, min_size=1, max_size=30)


class TestKnownValues:
    def test_identical_distributions(self):
        assert emd_from_values([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == 0.0

    def test_opposite_point_masses(self):
        # All mass in the first bin vs all in the last: maximal transport.
        value = emd_from_values([0.0], [1.0], bins=10)
        assert value == pytest.approx(0.9)

    def test_adjacent_bins(self):
        value = emd_from_values([0.05], [0.15], bins=10)
        assert value == pytest.approx(0.1)

    def test_group_size_invariance(self):
        small = [0.25, 0.75]
        large = [0.25, 0.75] * 50
        assert emd_from_values(small, large) == pytest.approx(0.0)


class TestMetricProperties:
    @given(samples, samples)
    def test_symmetry(self, left, right):
        assert emd_from_values(left, right) == pytest.approx(
            emd_from_values(right, left)
        )

    @given(samples)
    def test_identity(self, values):
        assert emd_from_values(values, values) == 0.0

    @given(samples, samples, samples)
    def test_triangle_inequality(self, a, b, c):
        assert emd_from_values(a, c) <= (
            emd_from_values(a, b) + emd_from_values(b, c) + 1e-9
        )

    @given(samples, samples)
    def test_bounded_by_one(self, left, right):
        assert 0.0 <= emd_from_values(left, right) <= 1.0


class TestAgainstScipy:
    @given(samples, samples)
    def test_matches_wasserstein_on_bin_centers(self, left, right):
        bins = 10
        value = emd_from_values(left, right, bins=bins)
        centers = UnitHistogram.from_values(left, bins=bins).bin_centers()
        left_counts = UnitHistogram.from_values(left, bins=bins).pmf()
        right_counts = UnitHistogram.from_values(right, bins=bins).pmf()
        reference = wasserstein_distance(
            centers, centers, left_counts, right_counts
        )
        assert value == pytest.approx(reference, abs=1e-9)


class TestErrors:
    def test_bin_mismatch(self):
        a = UnitHistogram.from_values([0.5], bins=5)
        b = UnitHistogram.from_values([0.5], bins=10)
        with pytest.raises(MeasureError, match="bin counts"):
            emd(a, b)

    def test_empty_side_rejected(self):
        with pytest.raises(MeasureError, match="empty"):
            emd_from_values([], [0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score_rejected_as_out_of_range(self, bad):
        # Not "cannot normalize an empty histogram": the score is invalid.
        with pytest.raises(MeasureError, match=r"lie in \[0, 1\]"):
            emd_from_values([bad], [0.9])
        with pytest.raises(MeasureError, match=r"lie in \[0, 1\]"):
            emd_from_values([0.2, 0.4], [0.9, bad])

    def test_measure_object_validates_bins(self):
        with pytest.raises(MeasureError, match="positive"):
            EmdMeasure(bins=0)

    def test_measure_object_callable(self):
        measure = EmdMeasure(bins=10)
        assert measure([0.0], [1.0]) == pytest.approx(0.9)
