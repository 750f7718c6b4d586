"""Ranked-list abstractions shared by both kinds of sites.

Search engines produce one :class:`RankedList` of *result identifiers* per
user (``E_q^l(u)`` in the paper).  Marketplaces produce one ranked list of
*workers* per ``(query, location)`` pair, optionally with the true scores
``f_q^l(w)``.  Everything downstream — Kendall Tau, Jaccard, EMD histograms,
exposure — consumes these lists.

Rank positions are 1-based, matching the paper:

* relevance proxy   ``rel_q^l(w) = 1 − rank(w,q,l) / N``       (§3.3.1)
* exposure          ``exp_q^l(w) = 1 / ln(1 + rank(w,q,l))``   (§3.3.2)

With ``rank = 1`` exposure is ``1/ln 2 ≈ 1.44``; the paper's Figure 5 numbers
(0.94 and 4.0) confirm the natural logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..exceptions import MeasureError
from ..stats.histograms import bin_indices

__all__ = ["RankedList", "relevance_from_rank", "exposure_from_rank"]


def relevance_from_rank(rank: int, n: int) -> float:
    """``1 − rank/N``: rank-derived relevance used when true scores are absent."""
    if rank < 1:
        raise MeasureError(f"ranks are 1-based; got {rank}")
    if n < rank:
        raise MeasureError(f"rank {rank} exceeds result-set size {n}")
    return 1.0 - rank / n


def exposure_from_rank(rank: int) -> float:
    """``1 / ln(1 + rank)``: position-bias exposure of a ranked item."""
    if rank < 1:
        raise MeasureError(f"ranks are 1-based; got {rank}")
    return 1.0 / math.log(1.0 + rank)


@dataclass(frozen=True)
class RankedList:
    """An ordered list of item identifiers, optionally scored.

    Parameters
    ----------
    items:
        Item identifiers from best (rank 1) to worst.  Duplicates are
        rejected — an item cannot occupy two ranks.
    scores:
        Optional mapping from item to its true score ``f_q^l`` in ``[0, 1]``.
        When absent, :meth:`relevance` falls back to the rank proxy.
    """

    items: tuple[str, ...]
    scores: Mapping[str, float] | None = None

    def __init__(
        self, items: Sequence[str], scores: Mapping[str, float] | None = None
    ) -> None:
        items = tuple(items)
        if len(set(items)) != len(items):
            raise MeasureError("a ranked list cannot contain duplicate items")
        if scores is not None:
            scores = dict(scores)
            missing = [item for item in items if item not in scores]
            if missing:
                raise MeasureError(f"scores missing for ranked items: {missing[:3]}")
            for item, score in scores.items():
                if not 0.0 <= score <= 1.0:
                    raise MeasureError(
                        f"scores must lie in [0, 1]; item {item!r} has {score!r}"
                    )
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "scores", scores)
        # 1-based rank of every item, built once: rank()/exposure()/relevance()
        # are the innermost calls of the exposure kernel, and rebuilding this
        # dict per call made group mass sums quadratic in the ranking length.
        object.__setattr__(
            self, "_pos", {item: index + 1 for index, item in enumerate(items)}
        )
        # Relevance bin of every item, per bin count, filled by relevance_bins.
        object.__setattr__(self, "_bins", {})

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[str]:
        return iter(self.items)

    def __contains__(self, item: object) -> bool:
        return item in self._pos

    def positions(self) -> Mapping[str, int]:
        """The 1-based rank of every item (the shared map; do not mutate)."""
        return self._pos

    def rank(self, item: str) -> int:
        """1-based rank of ``item``; raises :class:`MeasureError` if absent."""
        try:
            return self._pos[item]
        except KeyError:
            raise MeasureError(f"item {item!r} is not in this ranked list") from None

    def relevance(self, item: str) -> float:
        """True score if available, else the ``1 − rank/N`` proxy."""
        if self.scores is not None:
            return self.scores[item]
        return relevance_from_rank(self.rank(item), len(self))

    def relevance_bins(self, bins: int) -> np.ndarray:
        """The histogram bin of every item's :meth:`relevance`, in rank order.

        Binned once per bin count and cached (read-only), so the EMD measure
        histograms each group with one ``np.bincount`` instead of re-binning
        the ranking's scores for every group and comparison.
        """
        binned = self._bins.get(bins)
        if binned is None:
            binned = bin_indices([self.relevance(item) for item in self.items], bins)
            binned.setflags(write=False)
            self._bins[bins] = binned
        return binned

    def exposure(self, item: str) -> float:
        """Position-bias exposure ``1 / ln(1 + rank)`` of ``item``."""
        return exposure_from_rank(self.rank(item))

    def top(self, k: int) -> "RankedList":
        """The prefix of the first ``k`` items (scores restricted accordingly)."""
        if k < 0:
            raise MeasureError(f"k must be non-negative, got {k}")
        prefix = self.items[:k]
        scores = None
        if self.scores is not None:
            scores = {item: self.scores[item] for item in prefix}
        return RankedList(prefix, scores)

    def item_set(self) -> frozenset[str]:
        """The unordered set of items, for Jaccard-style comparisons."""
        return frozenset(self.items)
