"""Fixed-bin histograms over the unit interval.

The marketplace EMD measure (paper §3.3.1) compares *score distributions* of
worker groups.  Scores — whether the true marketplace scoring function
``f_q^l(w)`` or the rank proxy ``rel(w) = 1 − rank/N`` — live in ``[0, 1]``,
so a shared fixed-bin layout lets any two group histograms be compared
directly.  :class:`UnitHistogram` is the single histogram type used across
the library; it normalizes to a probability mass function on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import MeasureError

__all__ = ["UnitHistogram", "DEFAULT_BINS", "bin_indices"]

DEFAULT_BINS = 10
"""Default bin count for score histograms (see DESIGN.md ablation #2)."""


def bin_indices(values: Iterable[float], bins: int = DEFAULT_BINS) -> np.ndarray:
    """The bin of every value on ``bins`` equal-width bins over ``[0, 1]``.

    The edges are ``np.linspace(0, 1, bins + 1)``, numpy's own layout for a
    histogram over ``range=(0, 1)``: bin ``i`` holds ``edges[i] <= x <
    edges[i+1]`` and 1.0 falls into the last bin, so ``np.bincount`` of the
    result equals numpy's histogram counts (``tests/test_histograms.py``).
    Non-finite values are rejected with the out-of-range ones, not dropped.
    """
    data = np.asarray(list(values), dtype=float)
    bad = ~np.isfinite(data) | (data < 0.0) | (data > 1.0)
    if bad.any():
        raise MeasureError(
            f"histogram values must lie in [0, 1]; got {data[bad][0]!r}"
        )
    if bins <= 0:
        raise MeasureError(f"bin count must be positive, got {bins}")
    edges = np.linspace(0.0, 1.0, bins + 1)
    return np.minimum(np.searchsorted(edges, data, side="right") - 1, bins - 1)


@dataclass(frozen=True)
class UnitHistogram:
    """A histogram of values in ``[0, 1]`` with ``bins`` equal-width bins.

    Instances are immutable; the ``counts`` array is copied on construction
    and never mutated.  Values exactly equal to 1.0 fall into the last bin.
    """

    counts: np.ndarray
    bins: int

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=float)
        if counts.ndim != 1:
            raise MeasureError(f"histogram counts must be 1-D, got shape {counts.shape}")
        if counts.shape[0] != self.bins:
            raise MeasureError(
                f"histogram declares {self.bins} bins but holds {counts.shape[0]} counts"
            )
        if np.any(counts < 0):
            raise MeasureError("histogram counts must be non-negative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_values(cls, values: Iterable[float], bins: int = DEFAULT_BINS) -> "UnitHistogram":
        """Count ``values`` (each in ``[0, 1]``) into ``bins`` equal-width bins
        (see :func:`bin_indices` for the layout and validation)."""
        counts = np.bincount(bin_indices(values, bins), minlength=bins)
        return cls(counts=counts.astype(float), bins=bins)

    @property
    def total(self) -> float:
        """Total mass (number of values binned, for count histograms)."""
        return float(self.counts.sum())

    @property
    def is_empty(self) -> bool:
        """True when the histogram holds no mass at all."""
        return self.total == 0.0

    def pmf(self) -> np.ndarray:
        """Return the normalized probability mass function.

        Raises :class:`MeasureError` on an empty histogram — a group with no
        observed workers has no distribution to compare.
        """
        if self.is_empty:
            raise MeasureError("cannot normalize an empty histogram")
        return self.counts / self.total

    def bin_centers(self) -> np.ndarray:
        """Return the midpoints of each bin on the unit interval."""
        edges = np.linspace(0.0, 1.0, self.bins + 1)
        return (edges[:-1] + edges[1:]) / 2.0

    def merge(self, other: "UnitHistogram") -> "UnitHistogram":
        """Return the histogram of the pooled samples of ``self`` and ``other``."""
        self._check_compatible(other)
        return UnitHistogram(counts=self.counts + other.counts, bins=self.bins)

    def _check_compatible(self, other: "UnitHistogram") -> None:
        if self.bins != other.bins:
            raise MeasureError(
                f"histograms have different bin layouts ({self.bins} vs {other.bins})"
            )

    def __len__(self) -> int:
        return self.bins


def pooled_histogram(
    groups_of_values: Sequence[Iterable[float]], bins: int = DEFAULT_BINS
) -> UnitHistogram:
    """Histogram the union of several value collections."""
    merged: UnitHistogram = UnitHistogram.from_values([], bins=bins)
    for values in groups_of_values:
        merged = merged.merge(UnitHistogram.from_values(values, bins=bins))
    return merged
