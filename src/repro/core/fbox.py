"""The F-Box: the framework facade of the paper's Figures 6 and 9.

Both experiment pipelines funnel their processed observations into the
"F-Box", which materializes unfairness values and answers the two generic
problems.  :class:`FBox` is that component: construct it from a marketplace
or search dataset plus a measure name, and it lazily builds the unfairness
cube and whatever index families the queries need.

    >>> fbox = FBox.for_marketplace(dataset, schema, measure="emd")
    >>> fbox.quantify("group", k=5)                     # Problem 1
    >>> fbox.compare("group", males, females, "location")  # Problem 2
"""

from __future__ import annotations

import threading
from typing import Hashable, Iterable, Sequence

import numpy as np

from ..data.schema import MarketplaceDataset, SearchDataset
from ..exceptions import AlgorithmError, MeasureError
from ..stats.histograms import DEFAULT_BINS
from .attributes import AttributeSchema
from .comparison import ComparisonReport, compare, compare_with_indices
from .cube import UnfairnessCube
from .fagin import TopKResult, naive_top_k, top_k
from .groups import Group, group_lattice
from .indices import IndexFamily, build_family, refresh_family
from .interventions import InterventionResult, apply_intervention
from .unfairness import MarketplaceUnfairness, SearchEngineUnfairness, UnfairnessEngine

__all__ = ["FBox"]


class FBox:
    """Unified fairness quantification and comparison over one site's data.

    Use the :meth:`for_marketplace` / :meth:`for_search` constructors rather
    than ``__init__`` unless supplying a custom engine.

    Parameters
    ----------
    engine:
        Any object satisfying :class:`~repro.core.unfairness.UnfairnessEngine`.
    groups / queries / locations:
        The domains of the unfairness cube.  ``groups`` defaults to the full
        group lattice of the engine's schema; queries and locations default
        to everything observed in the dataset.
    """

    def __init__(
        self,
        engine: UnfairnessEngine,
        groups: Sequence[Group],
        queries: Sequence[str],
        locations: Sequence[str],
    ) -> None:
        self.engine = engine
        self.groups = list(groups)
        self.queries = list(queries)
        self.locations = list(locations)
        self._cube: UnfairnessCube | None = None
        self._families: dict[tuple[str, bool], IndexFamily] = {}
        # Shared FBox instances (the query service) materialize lazily from
        # many threads; the lock makes each build happen exactly once.
        self._build_lock = threading.RLock()
        self.cube_builds = 0
        self.family_builds = 0
        self.delta_applies = 0
        self.cells_recomputed = 0
        self.lists_rebuilt = 0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def for_marketplace(
        cls,
        dataset: MarketplaceDataset,
        schema: AttributeSchema,
        measure: str = "emd",
        groups: Iterable[Group] | None = None,
        queries: Iterable[str] | None = None,
        locations: Iterable[str] | None = None,
        bins: int = DEFAULT_BINS,
        exposure_denominator: str = "comparables",
    ) -> "FBox":
        """F-Box over crawled worker rankings (TaskRabbit-style sites)."""
        engine = MarketplaceUnfairness(
            dataset,
            schema,
            measure=measure,
            bins=bins,
            exposure_denominator=exposure_denominator,
        )
        return cls(
            engine,
            groups=list(groups) if groups is not None else group_lattice(schema),
            queries=list(queries) if queries is not None else dataset.queries,
            locations=list(locations) if locations is not None else dataset.locations,
        )

    @classmethod
    def for_search(
        cls,
        dataset: SearchDataset,
        schema: AttributeSchema,
        measure: str = "kendall",
        groups: Iterable[Group] | None = None,
        queries: Iterable[str] | None = None,
        locations: Iterable[str] | None = None,
        **measure_options,
    ) -> "FBox":
        """F-Box over per-user result lists (Google-job-search-style sites)."""
        engine = SearchEngineUnfairness(
            dataset, schema, measure=measure, **measure_options
        )
        return cls(
            engine,
            groups=list(groups) if groups is not None else group_lattice(schema),
            queries=list(queries) if queries is not None else dataset.queries,
            locations=list(locations) if locations is not None else dataset.locations,
        )

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    @property
    def cube(self) -> UnfairnessCube:
        """The materialized unfairness cube (computed exactly once).

        Double-checked locking: the fast path reads the attribute without
        taking the lock, so concurrent readers pay nothing once the cube
        exists, and first-touch threads race to the lock where only the
        winner computes.
        """
        if self._cube is None:
            with self._build_lock:
                if self._cube is None:
                    self._cube = UnfairnessCube.compute(
                        self.engine, self.groups, self.queries, self.locations
                    )
                    self.cube_builds += 1
        return self._cube

    @property
    def materialized_cube(self) -> UnfairnessCube | None:
        """The cube if it has been built (or attached), else ``None``.

        Unlike :attr:`cube` this never triggers a build."""
        return self._cube

    def family(self, dimension: str, order: str = "most") -> IndexFamily:
        """The ``dimension``-based index family (cached per sort direction).

        Built exactly once per ``(dimension, order)`` under the same lock as
        the cube, so concurrent first-touch queries share one build.
        """
        if order not in ("most", "least"):
            raise AlgorithmError(f"order must be 'most' or 'least', got {order!r}")
        descending = order == "most"
        key = (dimension, descending)
        if key not in self._families:
            cube = self.cube  # materialize outside the family check
            with self._build_lock:
                if key not in self._families:
                    self._families[key] = build_family(cube, dimension, descending)
                    self.family_builds += 1
        return self._families[key]

    def apply_observations(
        self,
        queries: Sequence[str],
        locations: Sequence[str],
        dirty_pairs: Sequence[tuple[str, str]],
    ) -> dict[str, int]:
        """Fold upserted observations into the live materializations.

        ``queries``/``locations`` are the dataset's *post-upsert* domains
        (first-seen order only appends, so they extend this F-Box's).  Only
        the dirty ``(query, location)`` cube columns are recomputed and only
        the posting lists they touch are re-sorted; everything else is reused
        verbatim, which is what makes the result bit-identical to a cold
        rebuild of the final dataset state.  Returns delta-work counters.
        """
        queries = list(queries)
        locations = list(locations)
        with self._build_lock:
            self.queries = queries
            self.locations = locations
            if self._cube is None:
                # Nothing materialized yet: the next lazy build sees the new
                # domains and dataset state, so there is no delta to apply.
                return {"cells_recomputed": 0, "lists_rebuilt": 0}
            old = self._cube
            self._cube = UnfairnessCube.compute_delta(
                self._cube, self.engine, queries, locations, dirty_pairs
            )
            # The exact staleness mask: which cells actually changed value
            # (NaN-aware — a cell undefined before and after is unchanged).
            # Old domains are prefixes of the new ones, so the old block
            # NaN-pads into the new shape exactly as compute_delta laid it.
            padded = np.full(self._cube.values.shape, np.nan)
            g, q, l = old.values.shape
            padded[:g, :q, :l] = old.values
            fresh_values = self._cube.values
            changed = ~(
                (padded == fresh_values)
                | (np.isnan(padded) & np.isnan(fresh_values))
            )
            rebuilt_total = 0
            for (dimension, descending), family in list(self._families.items()):
                fresh, rebuilt = refresh_family(
                    self._cube,
                    dimension,
                    descending,
                    family,
                    dirty_pairs,
                    changed=changed,
                )
                self._families[(dimension, descending)] = fresh
                rebuilt_total += rebuilt
            cells = len(dirty_pairs) * len(self.groups)
            self.delta_applies += 1
            self.cells_recomputed += cells
            self.lists_rebuilt += rebuilt_total
            return {"cells_recomputed": cells, "lists_rebuilt": rebuilt_total}

    @property
    def signature(self) -> tuple:
        """A cheap, hashable identity for cache keys: engine kind, measure,
        and domain sizes.  Stable across calls; no cube materialization."""
        return (
            type(self.engine).__name__,
            getattr(self.engine, "measure_name", None),
            len(self.groups),
            len(self.queries),
            len(self.locations),
        )

    # ------------------------------------------------------------------
    # The paper's two problems
    # ------------------------------------------------------------------

    def unfairness(self, group: Group, query: str, location: str) -> float:
        """``d<g,q,l>`` for one triple."""
        return self.cube.value(group, query, location)

    def aggregate(self, **selection) -> float:
        """§3.4 aggregation; see :meth:`UnfairnessCube.aggregate`."""
        return self.cube.aggregate(**selection)

    def quantify(
        self, dimension: str, k: int, order: str = "most", algorithm: str = "fagin"
    ) -> TopKResult:
        """Problem 1: the ``k`` most/least unfair members of ``dimension``.

        ``algorithm`` selects the threshold algorithm (``"fagin"``, default)
        or the exhaustive baseline (``"naive"``).
        """
        if algorithm == "fagin":
            family = self.family(dimension, order)
            # The TA resets then accumulates the family's access counters;
            # serialize runs on the shared family so each result reports a
            # coherent count.
            with family.query_lock:
                return top_k(self.cube, dimension, k, order=order, family=family)
        if algorithm == "naive":
            return naive_top_k(self.cube, dimension, k, order=order)
        raise AlgorithmError(f"algorithm must be 'fagin' or 'naive', got {algorithm!r}")

    def quantify_many(
        self, dimension: str, ks: Iterable[int], order: str = "most"
    ) -> dict[int, TopKResult]:
        """Problem 1 for every ``k`` in ``ks`` from one shared index sweep.

        The batch planner's core primitive: one threshold-algorithm run at
        ``max(ks)`` is sliced into each requested ``k`` (see
        :func:`repro.core.batch.multi_top_k`), so a grid of requests that
        differ only in ``k`` costs a single sweep's accesses.  All returned
        results share the sweep's frozen access stats — account them once.
        """
        from .batch import multi_top_k

        family = self.family(dimension, order)
        with family.query_lock:
            return multi_top_k(
                self.cube, dimension, ks, order=order, family=family
            )

    def compare(
        self,
        dimension: str,
        r1: Hashable,
        r2: Hashable,
        breakdown: str,
        algorithm: str = "cube",
    ) -> ComparisonReport:
        """Problem 2: breakdown members whose ordering reverses the overall.

        ``algorithm="cube"`` (default) aggregates straight from the cube;
        ``"indices"`` follows the paper's Algorithm 2 access pattern over
        the inverted indices and reports access counts in ``stats``.
        """
        if algorithm == "cube":
            return compare(self.cube, dimension, r1, r2, breakdown)
        if algorithm == "indices":
            return compare_with_indices(self.cube, dimension, r1, r2, breakdown)
        raise AlgorithmError(
            f"algorithm must be 'cube' or 'indices', got {algorithm!r}"
        )

    def whatif(
        self,
        group: Group,
        query: str,
        location: str,
        intervention: str,
        **options,
    ) -> InterventionResult:
        """What would repairing one cell's ranking do?

        Runs a registered intervention (``"fair"``, ``"exposure_lp"``, …)
        on the worker ranking behind ``d<group, query, location>`` and
        reports the before/after value of every registered group-ranking
        measure.  Purely hypothetical: neither the dataset nor any
        materialized cube/index is touched.  Only group-ranking engines
        (one shared ranking per cell) support interventions; search-engine
        cells have one ranking *per user* and raise :class:`MeasureError`.
        """
        ranked_members = getattr(self.engine, "ranked_members", None)
        if ranked_members is None:
            raise MeasureError(
                "what-if interventions need a group-ranking engine (one "
                f"worker ranking per cell); {type(self.engine).__name__} "
                "does not provide one"
            )
        ranking, members, populated = ranked_members(group, query, location)
        return apply_intervention(
            intervention, ranking, members, populated, **options
        )
