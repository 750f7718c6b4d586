"""Unit-interval histograms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import MeasureError
from repro.stats.histograms import (
    DEFAULT_BINS,
    UnitHistogram,
    bin_indices,
    pooled_histogram,
)

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestConstruction:
    def test_from_values_bins_correctly(self):
        hist = UnitHistogram.from_values([0.05, 0.15, 0.95], bins=10)
        assert hist.counts[0] == 1
        assert hist.counts[1] == 1
        assert hist.counts[9] == 1

    def test_value_of_exactly_one_goes_to_last_bin(self):
        hist = UnitHistogram.from_values([1.0], bins=10)
        assert hist.counts[9] == 1

    def test_rejects_out_of_range_values(self):
        with pytest.raises(MeasureError, match="lie in"):
            UnitHistogram.from_values([1.5])

    def test_rejects_negative_values(self):
        with pytest.raises(MeasureError):
            UnitHistogram.from_values([-0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        # NaN passes both range comparisons; it must not be dropped silently.
        with pytest.raises(MeasureError, match=r"lie in \[0, 1\]"):
            UnitHistogram.from_values([0.2, bad, 0.9])

    def test_rejects_nonpositive_bins(self):
        with pytest.raises(MeasureError, match="positive"):
            UnitHistogram.from_values([0.5], bins=0)

    def test_rejects_count_shape_mismatch(self):
        with pytest.raises(MeasureError):
            UnitHistogram(counts=np.ones(5), bins=10)

    def test_rejects_negative_counts(self):
        with pytest.raises(MeasureError):
            UnitHistogram(counts=np.array([1.0, -1.0]), bins=2)

    def test_counts_are_immutable(self):
        hist = UnitHistogram.from_values([0.5])
        with pytest.raises(ValueError):
            hist.counts[0] = 99


class TestProperties:
    def test_total_counts_values(self):
        hist = UnitHistogram.from_values([0.1, 0.2, 0.3])
        assert hist.total == 3.0

    def test_empty_histogram(self):
        hist = UnitHistogram.from_values([])
        assert hist.is_empty
        with pytest.raises(MeasureError, match="empty"):
            hist.pmf()

    def test_pmf_sums_to_one(self):
        hist = UnitHistogram.from_values([0.1, 0.5, 0.9, 0.9])
        assert hist.pmf().sum() == pytest.approx(1.0)

    def test_bin_centers(self):
        hist = UnitHistogram.from_values([], bins=4)
        assert list(hist.bin_centers()) == pytest.approx([0.125, 0.375, 0.625, 0.875])

    def test_len_is_bin_count(self):
        assert len(UnitHistogram.from_values([], bins=7)) == 7

    @given(st.lists(unit_floats, max_size=50))
    def test_total_equals_sample_size(self, values):
        assert UnitHistogram.from_values(values).total == len(values)


class TestMerge:
    def test_merge_pools_counts(self):
        a = UnitHistogram.from_values([0.1, 0.2])
        b = UnitHistogram.from_values([0.8])
        assert a.merge(b).total == 3.0

    def test_merge_rejects_different_layouts(self):
        a = UnitHistogram.from_values([], bins=5)
        b = UnitHistogram.from_values([], bins=10)
        with pytest.raises(MeasureError, match="bin layouts"):
            a.merge(b)

    def test_pooled_histogram_equals_concatenation(self):
        pooled = pooled_histogram([[0.1, 0.2], [0.9], []])
        direct = UnitHistogram.from_values([0.1, 0.2, 0.9])
        assert np.array_equal(pooled.counts, direct.counts)

    @given(st.lists(unit_floats, max_size=20), st.lists(unit_floats, max_size=20))
    def test_merge_is_commutative(self, left, right):
        a = UnitHistogram.from_values(left)
        b = UnitHistogram.from_values(right)
        assert np.array_equal(a.merge(b).counts, b.merge(a).counts)

    def test_default_bins(self):
        assert UnitHistogram.from_values([0.5]).bins == DEFAULT_BINS


# Every edge of the layout, the floats either side of it, and a grid.
def _edge_values(bins: int) -> np.ndarray:
    edges = np.linspace(0.0, 1.0, bins + 1)
    values = np.concatenate(
        [
            edges,
            np.nextafter(edges, np.inf),
            np.nextafter(edges, -np.inf),
            [0.0, 1.0],
            np.arange(1001) / 1000,
        ]
    )
    return values[(values >= 0.0) & (values <= 1.0)]


def _histogram_counts(values, bins: int) -> np.ndarray:
    return np.histogram(np.asarray(values, dtype=float), bins=bins, range=(0.0, 1.0))[0]


class TestBinIndices:
    """``bin_indices`` counts exactly as ``np.histogram`` over ``range=(0, 1)``."""

    @pytest.mark.parametrize("bins", [*range(1, 65), 1000])
    def test_counts_equal_np_histogram_at_every_edge(self, bins):
        values = _edge_values(bins)
        counts = np.bincount(bin_indices(values, bins), minlength=bins)
        assert np.array_equal(counts, _histogram_counts(values, bins))

    @given(
        st.lists(unit_floats, max_size=50),
        st.one_of(st.integers(min_value=1, max_value=64), st.just(1000)),
    )
    def test_counts_equal_np_histogram_on_drawn_floats(self, values, bins):
        counts = np.bincount(bin_indices(values, bins), minlength=bins)
        assert np.array_equal(counts, _histogram_counts(values, bins))
