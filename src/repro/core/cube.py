"""The unfairness cube: materialized ``d<g,q,l>`` for all triples.

The paper's indices and algorithms (§4) operate over pre-computed unfairness
values "for combinations of groups, queries and locations".
:class:`UnfairnessCube` is that materialization: a dense
``|G| × |Q| × |L|`` array plus the dimension labels, with slicing and the
§3.4 aggregations.  The three inverted-index families
(:mod:`repro.core.indices`) and both the Fagin-style and naive algorithms
are built from a cube.

Cells can be *missing* (NaN) when an observation does not define a value —
e.g. a group with no ranked workers for some pair.  Aggregations skip missing
cells; an aggregate with no defined cells raises :class:`CubeError`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import CubeError
from .groups import Group
from .unfairness import UnfairnessEngine

__all__ = ["UnfairnessCube"]

GROUP, QUERY, LOCATION = "group", "query", "location"
_AXES = {GROUP: 0, QUERY: 1, LOCATION: 2}


class UnfairnessCube:
    """Dense store of ``d<g,q,l>`` over fixed group/query/location domains."""

    def __init__(
        self,
        groups: Sequence[Group],
        queries: Sequence[str],
        locations: Sequence[str],
        values: np.ndarray,
    ) -> None:
        self.groups = list(groups)
        self.queries = list(queries)
        self.locations = list(locations)
        values = np.asarray(values, dtype=float)
        expected = (len(self.groups), len(self.queries), len(self.locations))
        if values.shape != expected:
            raise CubeError(f"cube values shape {values.shape} != domains {expected}")
        if not self.groups or not self.queries or not self.locations:
            raise CubeError("cube dimensions must all be non-empty")
        self.values = values
        self._group_index = {group: i for i, group in enumerate(self.groups)}
        self._query_index = {query: i for i, query in enumerate(self.queries)}
        self._location_index = {location: i for i, location in enumerate(self.locations)}
        if len(self._group_index) != len(self.groups):
            raise CubeError("duplicate groups in cube domain")
        if len(self._query_index) != len(self.queries):
            raise CubeError("duplicate queries in cube domain")
        if len(self._location_index) != len(self.locations):
            raise CubeError("duplicate locations in cube domain")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def compute(
        cls,
        engine: UnfairnessEngine,
        groups: Iterable[Group],
        queries: Iterable[str],
        locations: Iterable[str],
    ) -> "UnfairnessCube":
        """Evaluate ``engine`` on every triple; undefined cells become NaN.

        Each ``(query, location)`` column comes from one call to the
        engine's column kernel.
        """
        groups = list(groups)
        queries = list(queries)
        locations = list(locations)
        values = np.full((len(groups), len(queries), len(locations)), np.nan)
        for qi, query in enumerate(queries):
            for li, location in enumerate(locations):
                values[:, qi, li] = engine.column(groups, query, location)
        return cls(groups, queries, locations, values)

    @classmethod
    def compute_delta(
        cls,
        old: "UnfairnessCube",
        engine: UnfairnessEngine,
        queries: Sequence[str],
        locations: Sequence[str],
        dirty: Iterable[tuple[str, str]],
    ) -> "UnfairnessCube":
        """Rebuild only the dirty ``(query, location)`` columns of ``old``.

        ``queries``/``locations`` are the *new* full domains; the old domains
        must be prefixes of them (first-seen order only ever appends).  Every
        surviving cell is copied verbatim, so the result is bit-identical to
        a cold :meth:`compute` over the final dataset state as long as
        ``dirty`` covers every pair whose observation changed.
        """
        queries = list(queries)
        locations = list(locations)
        if old.queries != queries[: len(old.queries)]:
            raise CubeError("delta domains must extend the old queries in order")
        if old.locations != locations[: len(old.locations)]:
            raise CubeError("delta domains must extend the old locations in order")
        values = np.full((len(old.groups), len(queries), len(locations)), np.nan)
        values[:, : len(old.queries), : len(old.locations)] = old.values
        query_index = {query: i for i, query in enumerate(queries)}
        location_index = {location: i for i, location in enumerate(locations)}
        for query, location in dirty:
            values[:, query_index[query], location_index[location]] = engine.column(
                old.groups, query, location
            )
        return cls(old.groups, queries, locations, values)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _gi(self, group: Group) -> int:
        try:
            return self._group_index[group]
        except KeyError:
            raise CubeError(f"group {group} is not in this cube") from None

    def _qi(self, query: str) -> int:
        try:
            return self._query_index[query]
        except KeyError:
            raise CubeError(f"query {query!r} is not in this cube") from None

    def _li(self, location: str) -> int:
        try:
            return self._location_index[location]
        except KeyError:
            raise CubeError(f"location {location!r} is not in this cube") from None

    def value(self, group: Group, query: str, location: str) -> float:
        """``d<g,q,l>``; raises :class:`CubeError` on a missing (NaN) cell."""
        cell = float(self.values[self._gi(group), self._qi(query), self._li(location)])
        if math.isnan(cell):
            raise CubeError(
                f"d<{group},{query},{location}> is undefined in this cube"
            )
        return cell

    def column(self, query: str, location: str) -> np.ndarray:
        """The ``(query, location)`` column: one value per group, NaN where
        undefined (a view, in group-domain order)."""
        return self.values[:, self._qi(query), self._li(location)]

    def is_defined(self, group: Group, query: str, location: str) -> bool:
        """True when the cell holds a computed value."""
        cell = self.values[self._gi(group), self._qi(query), self._li(location)]
        return not math.isnan(float(cell))

    @property
    def missing_cells(self) -> int:
        """Number of undefined (NaN) cells."""
        return int(np.isnan(self.values).sum())

    # ------------------------------------------------------------------
    # Aggregation (§3.4)
    # ------------------------------------------------------------------

    def domain(self, dimension: str) -> list:
        """The label list of one dimension (``"group" | "query" | "location"``)."""
        if dimension == GROUP:
            return list(self.groups)
        if dimension == QUERY:
            return list(self.queries)
        if dimension == LOCATION:
            return list(self.locations)
        raise CubeError(f"unknown dimension {dimension!r}; use group/query/location")

    def aggregate(
        self,
        groups: Iterable[Group] | None = None,
        queries: Iterable[str] | None = None,
        locations: Iterable[str] | None = None,
    ) -> float:
        """``avg d<g,q,l>`` over the selected sub-cube (defaults: everything).

        Missing cells are skipped; an all-missing selection raises
        :class:`CubeError`.
        """
        gi = (
            [self._gi(g) for g in groups]
            if groups is not None
            else range(len(self.groups))
        )
        qi = (
            [self._qi(q) for q in queries]
            if queries is not None
            else range(len(self.queries))
        )
        li = (
            [self._li(l) for l in locations]
            if locations is not None
            else range(len(self.locations))
        )
        block = self.values[np.ix_(list(gi), list(qi), list(li))]
        defined = block[~np.isnan(block)]
        if defined.size == 0:
            raise CubeError("aggregate over an entirely undefined sub-cube")
        return float(defined.mean())

    def aggregate_for(self, dimension: str, member) -> float:
        """Average over the two non-``dimension`` axes for one member.

        ``aggregate_for("group", g)`` is the paper's ``d<g,Q,L>``;
        ``aggregate_for("query", q)`` is ``d<G,q,L>``; and
        ``aggregate_for("location", l)`` is ``d<G,Q,l>``.
        """
        if dimension == GROUP:
            return self.aggregate(groups=[member])
        if dimension == QUERY:
            return self.aggregate(queries=[member])
        if dimension == LOCATION:
            return self.aggregate(locations=[member])
        raise CubeError(f"unknown dimension {dimension!r}; use group/query/location")

    def fill_missing(self, value: float) -> "UnfairnessCube":
        """Return a copy with every NaN cell replaced by ``value``."""
        filled = np.where(np.isnan(self.values), value, self.values)
        return UnfairnessCube(self.groups, self.queries, self.locations, filled)

    def __repr__(self) -> str:
        shape = f"{len(self.groups)}×{len(self.queries)}×{len(self.locations)}"
        return f"UnfairnessCube({shape}, missing={self.missing_cells})"
