"""Earth Mover's Distance between unit-interval score histograms (§3.3.1).

For one-dimensional distributions on a shared equal-width bin layout the EMD
has a closed form: the L1 distance between the two cumulative distribution
functions, scaled by the bin width.  With both distributions normalized to
probability mass 1 and supported on ``[0, 1]``, the distance itself lies in
``[0, 1]`` — 0 for identical distributions, 1 when all mass sits at opposite
ends of the interval.  This matches the magnitudes the paper reports
(e.g. Figure 4's per-pair EMDs of 0.70 / 0.50 / 0.30).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ...exceptions import MeasureError
from ...stats.histograms import DEFAULT_BINS, UnitHistogram, bin_indices
from ..rankings import RankedList

__all__ = ["EmdMeasure", "emd", "emd_from_values", "emd_from_values_reference"]


def emd(left: UnitHistogram, right: UnitHistogram) -> float:
    """EMD between two histograms with identical bin layouts.

    Both histograms are normalized to PMFs first, so only the *shapes* of the
    two score distributions matter, not the group sizes — a 5-worker group
    and a 500-worker group with the same score profile are at distance 0.
    """
    if left.bins != right.bins:
        raise MeasureError(
            f"cannot compare histograms with different bin counts "
            f"({left.bins} vs {right.bins})"
        )
    return _pmf_distance(left.pmf(), right.pmf(), left.bins)


def _pmf_distance(left_pmf: np.ndarray, right_pmf: np.ndarray, bins: int) -> float:
    """The closed form: L1 distance between the two CDFs times the bin width."""
    cdf_gap = np.cumsum(left_pmf - right_pmf)
    return float(np.abs(cdf_gap).sum() * (1.0 / bins))


def _counts(values: Iterable[float], bins: int) -> np.ndarray:
    """Count one score collection into ``bins`` bins: the same
    :func:`~repro.stats.histograms.bin_indices` binning, validation and
    error messages as :meth:`UnitHistogram.from_values`, no histogram
    object."""
    return np.bincount(bin_indices(values, bins), minlength=bins).astype(float)


def _normalize(counts: np.ndarray) -> np.ndarray:
    total = float(counts.sum())
    if total == 0.0:
        raise MeasureError("cannot normalize an empty histogram")
    return counts / total


def emd_from_values(
    left_values: Iterable[float],
    right_values: Iterable[float],
    bins: int = DEFAULT_BINS,
) -> float:
    """Histogram two score collections, then EMD — without materializing the
    two :class:`UnitHistogram` instances the reference path builds."""
    left = _counts(left_values, bins)
    right = _counts(right_values, bins)
    return _pmf_distance(_normalize(left), _normalize(right), bins)


def emd_from_values_reference(
    left_values: Iterable[float],
    right_values: Iterable[float],
    bins: int = DEFAULT_BINS,
) -> float:
    """The histogram-object path the fast :func:`emd_from_values` is
    checked against (identical binning and float arithmetic)."""
    return emd(
        UnitHistogram.from_values(left_values, bins=bins),
        UnitHistogram.from_values(right_values, bins=bins),
    )


@dataclass(frozen=True)
class EmdMeasure:
    """EMD between the relevance-score histograms of two worker groups.

    Callable on two iterables of scores in ``[0, 1]`` (one per group);
    the bin count is fixed at construction so every comparison within an
    experiment shares one layout.
    """

    bins: int = DEFAULT_BINS
    name: str = "emd"

    def __post_init__(self) -> None:
        if self.bins <= 0:
            raise MeasureError(f"bin count must be positive, got {self.bins}")

    def __call__(
        self, left_scores: Iterable[float], right_scores: Iterable[float]
    ) -> float:
        return emd_from_values(left_scores, right_scores, bins=self.bins)

    def group_value(
        self,
        ranking: RankedList,
        group_members: Sequence[str],
        comparable_members: Mapping[str, Sequence[str]],
    ) -> float:
        """§3.3.1: average EMD between the group's relevance histogram and
        each populated comparable group's (the group-ranking protocol).

        Each group's PMF is one ``np.bincount`` over its members' cached
        :meth:`RankedList.relevance_bins`: the counts, and hence the
        distances, are those of :func:`emd` on
        :meth:`UnitHistogram.from_values` of the members' relevances.
        """
        if not comparable_members:
            raise MeasureError("EMD needs at least one populated comparable group")
        binned = ranking.relevance_bins(self.bins)

        def pmf(members: Sequence[str]) -> np.ndarray:
            ranks = [ranking.rank(item) - 1 for item in members]
            counts = np.bincount(binned[ranks], minlength=self.bins)
            return _normalize(counts.astype(float))

        own = pmf(group_members)
        return statistics.fmean(
            [
                _pmf_distance(own, pmf(members), self.bins)
                for members in comparable_members.values()
            ]
        )


from .base import GROUP_RANKING, MeasureOption, register_measure  # noqa: E402

register_measure(
    "emd",
    EmdMeasure,
    family=GROUP_RANKING,
    description=(
        "average Earth Mover's Distance between the group's relevance-score "
        "histogram and each comparable group's (§3.3.1)"
    ),
    options=(
        MeasureOption(
            "bins", "integer", DEFAULT_BINS, "histogram bin count (positive)"
        ),
    ),
    default_for=("taskrabbit",),
)
