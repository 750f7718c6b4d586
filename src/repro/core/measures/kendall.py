"""Kendall Tau distance between (possibly top-k) ranked lists.

The paper follows Hannak et al. [12] in comparing personalized search-result
lists with Kendall Tau.  Because two users' top-k lists need not contain the
same items, the classic tau (defined on permutations of one universe) does
not apply directly; we implement Fagin, Kumar & Sivakumar's ``K^(p)`` metric
for top-k lists, normalized to ``[0, 1]``.

For an item pair ``{i, j}`` drawn from the union of the two lists:

* **both in both lists** — penalty 1 if the two lists order them oppositely;
* **both in one list, one of them in the other** — the missing item is known
  to rank below everything present, so the order is inferable: penalty 1 on
  disagreement, 0 otherwise;
* **one item only in the left list, the other only in the right** — the lists
  necessarily disagree: penalty 1;
* **both in one list, neither in the other** — nothing is known: penalty
  ``p`` (default 0.5, the neutral choice).

The total penalty is divided by the number of scored pairs, giving 0 for
identical lists and 1 for disjoint ones when ``p = 1`` (with the neutral
``p = 0.5`` disjoint lists score slightly below 1, since same-list pairs
contribute only the neutral penalty).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass

from ...exceptions import MeasureError
from ..rankings import RankedList
from .base import register_measure

__all__ = [
    "KendallTauMeasure",
    "kendall_tau_distance",
    "kendall_tau_distance_reference",
]


@dataclass(frozen=True)
class KendallTauMeasure:
    """Normalized Kendall ``K^(p)`` top-k distance; see module docstring.

    Parameters
    ----------
    penalty:
        The ``p`` parameter for pairs whose relative order is unknowable
        (both items confined to one list).  Must lie in ``[0, 1]``.
    """

    penalty: float = 0.5
    name: str = "kendall"

    def __post_init__(self) -> None:
        if not 0.0 <= self.penalty <= 1.0:
            raise MeasureError(f"penalty must lie in [0, 1], got {self.penalty}")

    def __call__(self, left: RankedList, right: RankedList) -> float:
        return kendall_tau_distance(left, right, penalty=self.penalty)


def kendall_tau_distance(
    left: RankedList, right: RankedList, penalty: float = 0.5
) -> float:
    """Compute the normalized ``K^(p)`` distance between two ranked lists.

    Closed form: every case of the module docstring reduces to an integer
    pair count, so with ``s`` items shared by both lists and ``a``/``b``
    items only in the left/right list, the total penalty is
    ``disagreements * 1 + unknowable_pairs * penalty`` over the
    ``C(s + a + b, 2)`` pairs of the union, where

    * the disagreements are the inversions among the shared items (counted
      with ``bisect`` in ``O(s log s)``), plus, in each list, the shared
      items ranked *behind* each one-list item, plus the ``a * b`` split
      pairs;
    * the unknowable pairs are ``C(a, 2) + C(b, 2)``.

    :func:`kendall_tau_distance_reference` keeps the case-by-case pair loop
    as the executable specification.
    """
    if len(left) == 0 or len(right) == 0:
        raise MeasureError("cannot compare empty ranked lists with Kendall Tau")
    left_ranks, right_ranks = left.positions(), right.positions()
    # Walk the left list keeping the shared items' right ranks sorted: each
    # shared item is inverted with every earlier one ranked behind it on the
    # right, and each left-only item disagrees with the shared items behind
    # it (all of them minus the ones already seen).
    shared: list[int] = []
    ones = 0
    for item in left.items:
        rank = right_ranks.get(item)
        if rank is None:
            ones -= len(shared)
        else:
            ones += len(shared) - bisect_right(shared, rank)
            insort(shared, rank)
    only_left = len(left) - len(shared)
    ones += only_left * len(shared)
    # The same for each right-only item: ``position - only_right`` shared
    # items are ahead of it on the right.
    only_right = 0
    for position, item in enumerate(right.items):
        if item not in left_ranks:
            ones += len(shared) - (position - only_right)
            only_right += 1
    ones += only_left * only_right
    unknowns = only_left * (only_left - 1) // 2 + only_right * (only_right - 1) // 2
    n = len(shared) + only_left + only_right
    pairs = n * (n - 1) // 2
    if pairs == 0:
        # Both lists are the same singleton.
        return 0.0
    return (float(ones) + float(unknowns) * penalty) / pairs


def kendall_tau_distance_reference(
    left: RankedList, right: RankedList, penalty: float = 0.5
) -> float:
    """The case-by-case pair loop the closed-form kernel is checked against."""
    if len(left) == 0 or len(right) == 0:
        raise MeasureError("cannot compare empty ranked lists with Kendall Tau")
    left_pos = {item: index for index, item in enumerate(left.items)}
    right_pos = {item: index for index, item in enumerate(right.items)}
    universe = sorted(set(left_pos) | set(right_pos))

    total = 0.0
    pairs = 0
    for a_index, item_a in enumerate(universe):
        for item_b in universe[a_index + 1 :]:
            in_left = item_a in left_pos and item_b in left_pos
            in_right = item_a in right_pos and item_b in right_pos
            if in_left and in_right:
                pairs += 1
                left_order = left_pos[item_a] < left_pos[item_b]
                right_order = right_pos[item_a] < right_pos[item_b]
                if left_order != right_order:
                    total += 1.0
            elif in_left or in_right:
                pairs += 1
                present_pos, other_pos = (
                    (left_pos, right_pos) if in_left else (right_pos, left_pos)
                )
                a_elsewhere = item_a in other_pos
                b_elsewhere = item_b in other_pos
                if a_elsewhere or b_elsewhere:
                    # The absent item ranks below every present one; the order
                    # in the complete list is inferable.
                    ahead = item_a if present_pos[item_a] < present_pos[item_b] else item_b
                    inferable_ahead = item_a if a_elsewhere else item_b
                    if ahead != inferable_ahead:
                        total += 1.0
                else:
                    total += penalty
            else:
                # item_a only in one list, item_b only in the other: they
                # provably appear in opposite orders in the full rankings.
                pairs += 1
                total += 1.0
    if pairs == 0:
        # Both lists are the same singleton.
        return 0.0
    return total / pairs


from .base import MeasureOption, RANKED_LIST  # noqa: E402  (import-time)

register_measure(
    "kendall",
    KendallTauMeasure,
    family=RANKED_LIST,
    description=(
        "normalized Kendall K^(p) top-k distance between two users' result "
        "lists (§3.2, after Fagin, Kumar & Sivakumar)"
    ),
    options=(
        MeasureOption(
            "penalty",
            "number",
            0.5,
            "neutral penalty for pairs whose relative order is unknowable, "
            "in [0, 1]",
        ),
    ),
    default_for=("google",),
)
