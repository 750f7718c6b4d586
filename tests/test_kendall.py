"""Kendall Tau top-k distance."""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.measures.kendall import (
    KendallTauMeasure,
    kendall_tau_distance,
    kendall_tau_distance_reference,
)
from repro.core.rankings import RankedList
from repro.exceptions import MeasureError


def permutations_of(items):
    return st.permutations(items).map(lambda p: RankedList(list(p)))


class TestSameUniverse:
    def test_identical_lists_have_distance_zero(self):
        ranking = RankedList(["a", "b", "c", "d"])
        assert kendall_tau_distance(ranking, ranking) == 0.0

    def test_full_reversal_has_distance_one(self):
        a = RankedList(["a", "b", "c"])
        b = RankedList(["c", "b", "a"])
        assert kendall_tau_distance(a, b) == 1.0

    def test_single_adjacent_swap(self):
        a = RankedList(["a", "b", "c"])
        b = RankedList(["b", "a", "c"])
        assert kendall_tau_distance(a, b) == pytest.approx(1.0 / 3.0)

    def test_paper_figure_example(self):
        # Table 1's w1 = (b, d, e) vs w2 = (d, b, e): one discordant pair.
        a = RankedList(["b", "d", "e"])
        b = RankedList(["d", "b", "e"])
        assert kendall_tau_distance(a, b) == pytest.approx(1.0 / 3.0)

    @given(permutations_of(["a", "b", "c", "d"]), permutations_of(["a", "b", "c", "d"]))
    def test_symmetry(self, left, right):
        assert kendall_tau_distance(left, right) == pytest.approx(
            kendall_tau_distance(right, left)
        )

    @given(permutations_of(["a", "b", "c", "d", "e"]))
    def test_bounded_in_unit_interval(self, ranking):
        other = RankedList(["a", "b", "c", "d", "e"])
        assert 0.0 <= kendall_tau_distance(ranking, other) <= 1.0


class TestDifferentUniverses:
    def test_disjoint_lists_with_full_penalty(self):
        a = RankedList(["a", "b"])
        b = RankedList(["x", "y"])
        assert kendall_tau_distance(a, b, penalty=1.0) == 1.0

    def test_disjoint_lists_with_neutral_penalty(self):
        a = RankedList(["a", "b"])
        b = RankedList(["x", "y"])
        # 4 cross pairs at 1.0 plus 2 within-list pairs at 0.5 → 5/6.
        assert kendall_tau_distance(a, b) == pytest.approx(5.0 / 6.0)

    def test_inferable_order_agreement_is_free(self):
        # 'c' is missing from the right list, so right implicitly ranks it
        # below 'a' and 'b' — consistent with the left list.
        a = RankedList(["a", "b", "c"])
        b = RankedList(["a", "b"])
        assert kendall_tau_distance(a, b) == 0.0

    def test_inferable_order_disagreement_is_penalized(self):
        a = RankedList(["c", "a", "b"])  # left says c above a and b
        b = RankedList(["a", "b"])  # right implies c below both
        assert kendall_tau_distance(a, b) > 0.0

    def test_singleton_identical_lists(self):
        ranking = RankedList(["a"])
        assert kendall_tau_distance(ranking, ranking) == 0.0

    def test_empty_list_rejected(self):
        with pytest.raises(MeasureError, match="empty"):
            kendall_tau_distance(RankedList([]), RankedList(["a"]))


class TestMeasureObject:
    def test_callable_interface(self):
        measure = KendallTauMeasure()
        assert measure(RankedList(["a"]), RankedList(["a"])) == 0.0

    def test_penalty_validation(self):
        with pytest.raises(MeasureError, match="penalty"):
            KendallTauMeasure(penalty=1.5)

    def test_name(self):
        assert KendallTauMeasure().name == "kendall"

    @given(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6, unique=True),
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6, unique=True),
    )
    def test_distance_always_in_unit_interval(self, left, right):
        value = kendall_tau_distance(RankedList(left), RankedList(right))
        assert 0.0 <= value <= 1.0


# Top-k lists over a 40-item universe: overlapping, disjoint or singletons.
top_k_lists = st.lists(
    st.integers(min_value=0, max_value=39).map(lambda i: f"r{i}"),
    min_size=1,
    max_size=30,
    unique=True,
).map(RankedList)


class TestAgainstReference:
    """The closed-form kernel against the case-by-case pair loop."""

    @given(top_k_lists, top_k_lists)
    @example(RankedList(["a"]), RankedList(["a"]))
    @example(RankedList(["a"]), RankedList(["b"]))
    @example(RankedList(["a", "b", "c"]), RankedList(["d", "e"]))
    @example(RankedList(["a", "b", "c"]), RankedList(["c", "b", "a"]))
    @example(RankedList(["x", "a", "y", "b"]), RankedList(["b", "z", "a"]))
    def test_exact_for_dyadic_penalties(self, left, right):
        # ``ones + unknowns * p`` is exact for these p in either summation order.
        for penalty in (0.0, 0.25, 0.5, 1.0):
            assert kendall_tau_distance(left, right, penalty) == (
                kendall_tau_distance_reference(left, right, penalty)
            )

    @given(top_k_lists, top_k_lists, st.floats(min_value=0.0, max_value=1.0))
    def test_close_for_any_penalty(self, left, right, penalty):
        assert kendall_tau_distance(left, right, penalty) == pytest.approx(
            kendall_tau_distance_reference(left, right, penalty), abs=1e-12
        )
