"""Test helpers shared across modules."""

from __future__ import annotations

import numpy as np

from repro.core.cube import UnfairnessCube
from repro.core.groups import Group


def make_cube(
    n_groups: int = 4, n_queries: int = 3, n_locations: int = 3, seed: int = 0
) -> UnfairnessCube:
    """A dense synthetic cube with deterministic pseudo-random values."""
    rng = np.random.default_rng(seed)
    genders = [f"g{i}" for i in range(n_groups)]
    schema_groups = [Group({"gender": gender}) for gender in genders]
    queries = [f"q{i}" for i in range(n_queries)]
    locations = [f"l{i}" for i in range(n_locations)]
    values = rng.uniform(0.0, 1.0, size=(n_groups, n_queries, n_locations))
    return UnfairnessCube(schema_groups, queries, locations, values)


def use_backend(server, backend: str):
    """Apply the ``backend`` test parameter (see ``tests/conftest.py``) to a
    freshly built server and return it.

    ``threads`` turns off the event loop's cached-answer shortcut
    (``FBoxApp._fast_path``) on this server's app, so every POST is admitted
    and answered on the app's worker-thread pool; ``asyncio`` leaves the
    server as deployed.
    """
    if backend == "threads":
        server.app._fast_path = lambda path, payload: None
    return server
