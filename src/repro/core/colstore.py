"""Columnar shared-memory storage for the cube and index families.

The dict-backed :class:`~repro.core.indices.IndexFamily` stores every posting
list as a tuple of ``(key, value)`` pairs plus a key→value dict — convenient,
but each probe is a hash lookup and every worker process carries its own copy.
This module flattens that state into four arrays per ``(dataset, measure)``:

* one contiguous ``float64`` **value block** — the cube itself;
* per materialized family, an ``int32`` **permutation array** (member row
  indices, posting-list order, NaN cells dropped) and an ``int32`` **offset
  array** delimiting each posting list inside the permutation;

and exposes them in two forms.  :class:`ColumnarStore` is the in-memory image
(buildable from any :class:`~repro.core.cube.UnfairnessCube`, serializable to
one flat byte blob); :class:`SegmentSpace` maps those blobs into POSIX shared
memory so a restarted worker *attaches* to the live state in O(1) instead of
recomputing it, and the sharded front can answer reads against a worker's
published state without holding its own copy.

Segment protocol
----------------
Per ``(dataset, measure)`` there is one fixed-name *head* segment (a tiny
length-prefixed JSON record naming the current generation, its payload
segment and a random per-publish token) and one *payload* segment per
published generation.  A publish writes the complete new payload first, then
rewrites the head, then unlinks the superseded payload — readers that lose
the race see a parse failure or a vanished payload and report
:class:`SegmentMiss`, which callers treat as "fall back to the slow path",
never as an error.  Already-mapped views keep working after an unlink (POSIX
semantics), so in-flight queries are safe.

Payloads are immutable once the head names them, so a reader that has
already decoded the payload a head record names can reuse that view for as
long as the head still holds the same record: :meth:`SegmentSpace.view`
re-reads the head on every call and decodes only when it changed.  The
token is what makes the record a safe cache key — a :meth:`SegmentSpace.clear`
followed by a republish restarts generation numbering, so ``(generation,
payload)`` alone could name different contents.

Equivalence contract
--------------------
Everything observable matches the dict core bit-for-bit: posting-list order
comes from a *stable* argsort exactly mirroring the stable python sort in
:meth:`InvertedIndex.from_pairs`, and :meth:`ColumnarFamily.run_sweep`
replays the threshold algorithm of :func:`repro.core.fagin.top_k` —
``math.fsum``-exact aggregates and thresholds, the same round structure,
tie-breaks, early-stop test, and access-cost accounting — without the
per-entry python loop.
"""

from __future__ import annotations

import heapq
import json
import math
import re
import secrets
import threading
from functools import cached_property
from hashlib import blake2s
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import Callable, Hashable, Sequence, TypeVar

import numpy as np

from ..exceptions import AlgorithmError, IndexError_
from .cube import GROUP, LOCATION, QUERY, UnfairnessCube
from .fagin import TopKResult
from .fbox import FBox
from .groups import Group
from .indices import AccessStats, InvertedIndex

__all__ = [
    "SegmentMiss",
    "SegmentSpace",
    "ColumnarStore",
    "ColumnarFamily",
    "ColumnarFBox",
    "sorted_columns",
    "member_matrix",
]

_SHM_DIR = Path("/dev/shm")
_HEAD_SIZE = 1024

_View = TypeVar("_View")


class SegmentMiss(Exception):
    """Internal signal: no attachable segment (absent, torn, or superseded).

    Never surfaces to API clients — callers catch it and fall back to
    computing locally or routing to the owning worker.
    """


class _Segment(shared_memory.SharedMemory):
    """A segment whose finalizer tolerates still-exported numpy views.

    Attached payloads keep zero-copy views alive for the life of their
    store; at collection time the base finalizer's ``close()`` raises
    ``BufferError`` on the exported buffer.  The mapping is reclaimed with
    the process either way, so the finalizer swallows it.
    """

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            super().__del__()
        except BufferError:
            pass


_TRACKER_LOCK = threading.Lock()


class _untracked:
    """No-op the ``resource_tracker`` around one shared-memory operation.

    Python 3.11 registers every segment with the tracker on *both* create
    and attach, so a short-lived attaching process would unlink segments it
    does not own when it exits.  Worse, forked workers share the front
    process's tracker daemon, whose cache is a set: N processes touching
    one segment collapse to a single entry, and every unregister after the
    first makes the daemon print a KeyError traceback.  Lifecycle here is
    explicit (publish/clear), so segments never reach the tracker at all.
    """

    def __enter__(self) -> None:
        _TRACKER_LOCK.acquire()
        self._register = resource_tracker.register
        self._unregister = resource_tracker.unregister
        resource_tracker.register = lambda *args, **kwargs: None
        resource_tracker.unregister = lambda *args, **kwargs: None

    def __exit__(self, *exc_info) -> None:
        resource_tracker.register = self._register
        resource_tracker.unregister = self._unregister
        _TRACKER_LOCK.release()


def _open_shm(name: str, create: bool = False, size: int = 0) -> _Segment:
    """Open a shared-memory segment without resource-tracker interference."""
    with _untracked():
        return _Segment(name=name, create=create, size=size)


def _slug(text: str) -> str:
    """A deterministic, filesystem-safe token for one dataset/measure name."""
    clean = re.sub(r"[^A-Za-z0-9]", "", text)[:10]
    return clean + blake2s(text.encode("utf-8"), digest_size=4).hexdigest()


def _unlink(name: str) -> None:
    try:
        segment = _open_shm(name)
    except FileNotFoundError:
        return
    with _untracked():  # unlink() would unregister a never-registered name
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - lost a racing unlink
            pass
    segment.close()


class SegmentSpace:
    """One namespace of head/payload segments shared by a server's processes.

    The namespace token isolates concurrent servers on one machine; the
    front and every worker of one server share the token, so a worker's
    publishes are visible to the front's attaches.  :meth:`clear` sweeps by
    name prefix, which also collects segments created by since-dead workers.
    :meth:`view` keeps one decoded view per ``(dataset, measure)``, keyed by
    the head record it was decoded under.
    """

    def __init__(self, namespace: str) -> None:
        if not re.fullmatch(r"[A-Za-z0-9]+", namespace or ""):
            raise AlgorithmError(
                f"segment namespace must be alphanumeric, got {namespace!r}"
            )
        self.namespace = namespace
        # Fallback bookkeeping for platforms without a scannable /dev/shm.
        self._created: set[str] = set()
        self._views: dict[tuple[str, str], tuple[tuple, object]] = {}
        self._lock = threading.Lock()

    # -- naming --------------------------------------------------------

    def _base(self, dataset: str, measure: str) -> str:
        return f"fbx{self.namespace}-{_slug(dataset)}-{_slug(measure)}"

    def head_name(self, dataset: str, measure: str) -> str:
        return self._base(dataset, measure) + "-head"

    def payload_name(self, dataset: str, measure: str, generation: int) -> str:
        return self._base(dataset, measure) + f"-g{generation}"

    # -- head record ---------------------------------------------------

    @staticmethod
    def _read_head(head: shared_memory.SharedMemory) -> tuple[int, str, str] | None:
        """The ``(generation, payload, token)`` record, or ``None`` if torn."""
        raw = bytes(head.buf[:4])
        length = int.from_bytes(raw, "little")
        if length == 0 or length > _HEAD_SIZE - 4:
            return None
        try:
            record = json.loads(bytes(head.buf[4 : 4 + length]).decode("utf-8"))
            return (
                int(record["generation"]),
                str(record["payload"]),
                str(record["token"]),
            )
        except Exception:
            return None  # torn concurrent rewrite; caller treats as a miss

    @staticmethod
    def _write_head(
        head: shared_memory.SharedMemory, generation: int, payload: str
    ) -> None:
        body = json.dumps(
            {
                "generation": generation,
                "payload": payload,
                "token": secrets.token_hex(8),
            },
            separators=(",", ":"),
        ).encode("utf-8")
        record = len(body).to_bytes(4, "little") + body
        head.buf[: len(record)] = record

    def _head(self, dataset: str, measure: str) -> tuple[int, str, str]:
        """The live head record; raises :class:`SegmentMiss` when unreadable."""
        try:
            head = _open_shm(self.head_name(dataset, measure))
        except (FileNotFoundError, OSError):
            raise SegmentMiss(f"no segment for ({dataset!r}, {measure!r})") from None
        try:
            parsed = self._read_head(head)
        finally:
            head.close()
        if parsed is None:
            raise SegmentMiss(f"unreadable head for ({dataset!r}, {measure!r})")
        return parsed

    @staticmethod
    def _open_payload(payload_name: str) -> shared_memory.SharedMemory:
        try:
            return _open_shm(payload_name)
        except (FileNotFoundError, OSError):
            raise SegmentMiss(
                f"payload {payload_name!r} superseded mid-attach"
            ) from None

    # -- publish / attach ----------------------------------------------

    def head_generation(self, dataset: str, measure: str) -> int:
        """The currently published generation (0 when nothing is live)."""
        try:
            return self._head(dataset, measure)[0]
        except SegmentMiss:
            return 0

    def publish(self, dataset: str, measure: str, encode) -> int:
        """Publish the next generation; ``encode(generation)`` builds the blob.

        Returns the generation published.  The superseded payload is
        unlinked after the head points at the new one; attached readers keep
        their mappings.
        """
        head_name = self.head_name(dataset, measure)
        try:
            head = _open_shm(head_name)
        except FileNotFoundError:
            head = _open_shm(head_name, create=True, size=_HEAD_SIZE)
        with self._lock:
            self._created.add(head_name)
        try:
            previous = self._read_head(head)
            generation = (previous[0] if previous else 0) + 1
            blob = encode(generation)
            payload_name = self.payload_name(dataset, measure, generation)
            _unlink(payload_name)  # leftover from a crashed publish
            payload = _open_shm(payload_name, create=True, size=len(blob))
            with self._lock:
                self._created.add(payload_name)
            payload.buf[: len(blob)] = blob
            payload.close()
            self._write_head(head, generation, payload_name)
        finally:
            head.close()
        if previous is not None and previous[1] != payload_name:
            _unlink(previous[1])
        return generation

    def attach(
        self, dataset: str, measure: str
    ) -> tuple[int, shared_memory.SharedMemory]:
        """Map the live payload; raises :class:`SegmentMiss` when impossible."""
        generation, payload_name, _ = self._head(dataset, measure)
        return generation, self._open_payload(payload_name)

    def view(
        self,
        dataset: str,
        measure: str,
        build: Callable[[int, shared_memory.SharedMemory], _View],
    ) -> _View:
        """The cached view of the live payload, rebuilt when the head changes.

        The head is read on every call, so a view is never served after its
        payload was superseded; ``build(generation, payload)`` decodes a
        newly published payload, and the view it returns replaces (and so
        releases) the previous one.  Raises :class:`SegmentMiss` like
        :meth:`attach`.
        """
        record = self._head(dataset, measure)
        key = (dataset, measure)
        with self._lock:
            cached = self._views.get(key)
        if cached is not None and cached[0] == record:
            return cached[1]
        built = build(record[0], self._open_payload(record[1]))
        with self._lock:
            self._views[key] = (record, built)
        return built

    def segment_count(self, dataset: str) -> int:
        """How many live segments (heads + payloads) back ``dataset``.

        A live shard-pool resize hands columnar state between workers by
        *not* touching the segments at all — the destination re-attaches
        the same shared memory — so a before/after count that stays equal
        is the cheap observable proof of the O(1) handoff.
        """
        return len(self._known(f"fbx{self.namespace}-{_slug(dataset)}-"))

    # -- cleanup -------------------------------------------------------

    def _known(self, prefix: str) -> set[str]:
        names: set[str] = set()
        if _SHM_DIR.is_dir():
            try:
                names.update(
                    entry.name
                    for entry in _SHM_DIR.iterdir()
                    if entry.name.startswith(prefix)
                )
            except OSError:  # pragma: no cover - scan raced a teardown
                pass
        with self._lock:
            names.update(name for name in self._created if name.startswith(prefix))
        return names

    def clear(
        self, dataset: str | None = None, keep_measures: Sequence[str] = ()
    ) -> int:
        """Unlink this namespace's segments; returns how many were removed.

        With ``dataset`` set, only that dataset's segments go; measures in
        ``keep_measures`` survive (their F-Boxes just republished and still
        reflect the live dataset state).
        """
        if dataset is None:
            prefix = f"fbx{self.namespace}-"
        else:
            prefix = f"fbx{self.namespace}-{_slug(dataset)}-"
        keep = {
            self._base(dataset, measure)
            for measure in keep_measures
            if dataset is not None
        }
        removed = 0
        for name in self._known(prefix):
            if any(name.startswith(base) for base in keep):
                continue
            _unlink(name)
            removed += 1
        with self._lock:
            self._created = {
                name for name in self._created if not name.startswith(prefix)
            } | (self._created & keep)
            # Drop views of the unlinked payloads so none stays mapped.
            self._views = {
                key: view
                for key, view in self._views.items()
                if not self._base(*key).startswith(prefix)
                or self._base(*key) in keep
            }
        return removed

    def close(self) -> int:
        """Unlink everything in the namespace (server shutdown)."""
        return self.clear()


# ----------------------------------------------------------------------
# Columnar layout
# ----------------------------------------------------------------------

_PAIR_AXES = {GROUP: (1, 2), QUERY: (0, 2), LOCATION: (0, 1)}


def member_matrix(values: np.ndarray, dimension: str) -> np.ndarray:
    """The cube as a dense ``(members, pairs)`` matrix for one dimension.

    Rows follow the dimension's domain order; columns follow the fixed-pair
    iteration order of :func:`repro.core.indices.build_family` (the first
    remaining axis is the major one), so column ``p`` *is* posting list ``p``.
    """
    axis = {GROUP: 0, QUERY: 1, LOCATION: 2}[dimension]
    moved = np.moveaxis(values, axis, 0)
    return np.ascontiguousarray(moved.reshape(moved.shape[0], -1))


def sorted_columns(
    matrix: np.ndarray, descending: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column stable argsort with NaNs dropped: the posting-list arrays.

    Returns ``(offsets, perm)``: ``perm[offsets[p]:offsets[p + 1]]`` lists
    the member rows of posting list ``p`` in sort order.  A stable argsort
    on the (negated, for descending) values reproduces the stable python
    sort in :meth:`InvertedIndex.from_pairs` exactly: ties keep domain
    order, and NaNs — which sort last either way — are truncated per column.
    """
    members, _ = matrix.shape
    keys = -matrix if descending else matrix
    order = np.argsort(keys, axis=0, kind="stable")
    lengths = members - np.isnan(matrix).sum(axis=0)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:], dtype=np.int32)
    mask = np.arange(members)[None, :] < lengths[:, None]
    perm = order.T[mask].astype(np.int32)
    return offsets, perm


def _pair_count(shape: tuple[int, int, int], dimension: str) -> int:
    a, b = _PAIR_AXES[dimension]
    return shape[a] * shape[b]


def _align(offset: int) -> int:
    return -(-offset // 8) * 8


def _layout(
    shape: tuple[int, int, int], families: Sequence[tuple[str, bool, int]]
) -> tuple[int, list[tuple[int, int]], int]:
    """Deterministic block offsets (relative to the data region) and size."""
    cursor = 0

    def block(count: int, itemsize: int) -> int:
        nonlocal cursor
        cursor = _align(cursor)
        start = cursor
        cursor += count * itemsize
        return start

    values_offset = block(shape[0] * shape[1] * shape[2], 8)
    family_offsets = []
    for dimension, _descending, perm_size in families:
        offsets_offset = block(_pair_count(shape, dimension) + 1, 4)
        perm_offset = block(perm_size, 4)
        family_offsets.append((offsets_offset, perm_offset))
    return values_offset, family_offsets, _align(cursor)


class ColumnarStore:
    """The flat image of one cube plus its materialized family arrays.

    ``families`` maps ``(dimension, descending)`` to ``(offsets, perm)``
    int32 arrays.  The store either owns plain arrays (built locally) or
    holds read-only views into an attached shared-memory payload, which it
    keeps alive for as long as any view can be reachable.
    """

    def __init__(
        self,
        cube: UnfairnessCube,
        families: dict[tuple[str, bool], tuple[np.ndarray, np.ndarray]],
        generation: int = 0,
        segment: shared_memory.SharedMemory | None = None,
    ) -> None:
        self.cube = cube
        self.families = families
        self.generation = generation
        # An attached payload must never be closed while views exist; the
        # mapping is released with the store (unlink is independent of it).
        self._segment = segment

    @classmethod
    def from_cube(
        cls,
        cube: UnfairnessCube,
        family_keys: Sequence[tuple[str, bool]] = (),
    ) -> "ColumnarStore":
        """Build the columnar arrays for ``cube`` (vectorized argsorts)."""
        families = {}
        for dimension, descending in family_keys:
            matrix = member_matrix(cube.values, dimension)
            families[(dimension, descending)] = sorted_columns(matrix, descending)
        return cls(cube, families)

    def add_family(self, dimension: str, descending: bool) -> None:
        if (dimension, descending) in self.families:
            return
        matrix = member_matrix(self.cube.values, dimension)
        self.families[(dimension, descending)] = sorted_columns(matrix, descending)

    # -- serialization -------------------------------------------------

    def encode(self, generation: int) -> bytes:
        """One flat blob: length-prefixed JSON header, then aligned arrays."""
        shape = self.cube.values.shape
        metas = [
            (dimension, descending, int(perm.size))
            for (dimension, descending), (_, perm) in self.families.items()
        ]
        header = {
            "generation": generation,
            "shape": list(shape),
            "groups": [
                [list(predicate) for predicate in group.predicates]
                for group in self.cube.groups
            ],
            "queries": list(self.cube.queries),
            "locations": list(self.cube.locations),
            "families": [
                {"dimension": d, "descending": bool(desc), "perm_size": n}
                for d, desc, n in metas
            ],
        }
        head = json.dumps(header, separators=(",", ":")).encode("utf-8")
        data_start = _align(8 + len(head))
        values_offset, family_offsets, data_size = _layout(shape, metas)
        blob = bytearray(data_start + data_size)
        blob[0:8] = len(head).to_bytes(8, "little")
        blob[8 : 8 + len(head)] = head

        def put(offset: int, array: np.ndarray) -> None:
            start = data_start + offset
            raw = np.ascontiguousarray(array)
            blob[start : start + raw.nbytes] = raw.tobytes()

        put(values_offset, self.cube.values)
        for (offsets_offset, perm_offset), (offsets, perm) in zip(
            family_offsets, self.families.values()
        ):
            put(offsets_offset, offsets)
            put(perm_offset, perm)
        return bytes(blob)

    @classmethod
    def decode(cls, segment: shared_memory.SharedMemory) -> "ColumnarStore":
        """Zero-copy read-only views over an attached payload segment."""
        buf = segment.buf
        try:
            head_length = int.from_bytes(bytes(buf[0:8]), "little")
            header = json.loads(bytes(buf[8 : 8 + head_length]).decode("utf-8"))
            shape = tuple(header["shape"])
            metas = [
                (entry["dimension"], bool(entry["descending"]), int(entry["perm_size"]))
                for entry in header["families"]
            ]
            data_start = _align(8 + head_length)
            values_offset, family_offsets, _ = _layout(shape, metas)

            def view(offset: int, dtype, count: int) -> np.ndarray:
                array = np.frombuffer(
                    buf, dtype=dtype, count=count, offset=data_start + offset
                )
                array.flags.writeable = False
                return array

            values = view(
                values_offset, np.float64, shape[0] * shape[1] * shape[2]
            ).reshape(shape)
            groups = [
                Group([tuple(predicate) for predicate in predicates])
                for predicates in header["groups"]
            ]
            cube = UnfairnessCube(
                groups, header["queries"], header["locations"], values
            )
            families = {}
            for (dimension, descending, perm_size), (
                offsets_offset,
                perm_offset,
            ) in zip(metas, family_offsets):
                offsets = view(
                    offsets_offset, np.int32, _pair_count(shape, dimension) + 1
                )
                perm = view(perm_offset, np.int32, perm_size)
                families[(dimension, descending)] = (offsets, perm)
            return cls(
                cube,
                families,
                generation=int(header["generation"]),
                segment=segment,
            )
        except SegmentMiss:
            raise
        except Exception as error:
            raise SegmentMiss(f"undecodable payload segment: {error}") from error


# ----------------------------------------------------------------------
# Columnar index family
# ----------------------------------------------------------------------

_UNSEEN = 1 << 60


class ColumnarFamily:
    """An :class:`IndexFamily`-compatible family over flat columnar arrays.

    The probe interface (``sorted_access`` / ``random_access`` /
    ``has_value`` / ``posting_list``) matches the dict family including its
    error messages and success-only cost accounting.  :meth:`run_sweep`
    additionally replays the whole threshold algorithm over numpy views —
    :func:`repro.core.fagin.top_k` dispatches to it when present.
    """

    def __init__(
        self,
        cube: UnfairnessCube,
        dimension: str,
        descending: bool,
        offsets: np.ndarray,
        perm: np.ndarray,
    ) -> None:
        self.dimension = dimension
        self.descending = descending
        self.stats = AccessStats()
        self.query_lock = threading.Lock()
        self._cube = cube
        self._offsets = offsets
        self._perm = perm
        self._matrix = member_matrix(cube.values, dimension)
        self._members = cube.domain(dimension)
        self._member_rows = {member: row for row, member in enumerate(self._members)}
        self._lists: dict[tuple, InvertedIndex] = {}
        self._sweep_state: dict | None = None

    @cached_property
    def _pair_cols(self) -> dict[tuple, int]:
        """Fixed-pair key → column, built on the first probe: a
        :meth:`run_sweep` never needs it, and a cached attached view or a
        per-write family rebuild should not pay for it."""
        return {
            pair: col
            for col, pair in enumerate(self._pair_domain(self._cube, self.dimension))
        }

    @staticmethod
    def _pair_domain(cube: UnfairnessCube, dimension: str) -> list[tuple]:
        if dimension == GROUP:
            return [(q, l) for q in cube.queries for l in cube.locations]
        if dimension == QUERY:
            return [(g, l) for g in cube.groups for l in cube.locations]
        if dimension == LOCATION:
            return [(g, q) for g in cube.groups for q in cube.queries]
        raise IndexError_(
            f"unknown dimension {dimension!r}; use group/query/location"
        )

    # -- IndexFamily interface -----------------------------------------

    @property
    def pair_keys(self) -> list[tuple]:
        """All fixed-pair keys, in canonical (build) order."""
        return list(self._pair_cols)

    def _column(self, pair: tuple) -> int:
        try:
            return self._pair_cols[pair]
        except KeyError:
            raise IndexError_(f"no posting list for pair {pair!r}") from None

    def posting_list(self, pair: tuple) -> InvertedIndex:
        """A materialized :class:`InvertedIndex` view of one column (cached)."""
        cached = self._lists.get(pair)
        if cached is None:
            col = self._column(pair)
            start, stop = int(self._offsets[col]), int(self._offsets[col + 1])
            rows = self._perm[start:stop]
            cached = InvertedIndex(
                entries=tuple(
                    (self._members[row], float(self._matrix[row, col]))
                    for row in rows
                ),
                descending=self.descending,
            )
            self._lists[pair] = cached
        return cached

    def sorted_access(self, pair: tuple, position: int) -> tuple[Hashable, float]:
        """Counted sorted access; misses are tallied, not charged."""
        try:
            col = self._column(pair)
            start, stop = int(self._offsets[col]), int(self._offsets[col + 1])
            if not 0 <= position < stop - start:
                raise IndexError_(
                    f"sorted access at {position} out of range (size {stop - start})"
                )
        except IndexError_:
            self.stats.record_sorted_miss()
            raise
        row = int(self._perm[start + position])
        self.stats.record_sorted()
        return self._members[row], float(self._matrix[row, col])

    def random_access(self, pair: tuple, key: Hashable) -> float:
        """Counted O(1) random access; misses are tallied, not charged."""
        try:
            col = self._column(pair)
            row = self._member_rows.get(key)
            if row is None:
                raise IndexError_(f"key {key!r} is not in this posting list")
            value = float(self._matrix[row, col])
            if math.isnan(value):
                raise IndexError_(f"key {key!r} is not in this posting list")
        except IndexError_:
            self.stats.record_random_miss()
            raise IndexError_(
                f"key {key!r} has no value for pair {pair!r}"
            ) from None
        self.stats.record_random()
        return value

    def has_value(self, pair: tuple, key: Hashable) -> bool:
        """True when ``key`` holds a value in the ``pair`` posting list."""
        col = self._pair_cols.get(pair)
        row = self._member_rows.get(key)
        if col is None or row is None:
            return False
        return not math.isnan(float(self._matrix[row, col]))

    def reset_stats(self) -> None:
        """Detach a fresh zeroed counter (frozen results keep the old one)."""
        self.stats = AccessStats()

    def stats_snapshot(self) -> AccessStats:
        """A consistent copy of the current access counters."""
        return self.stats.snapshot()

    # -- the vectorized threshold algorithm ----------------------------

    def _prepare_sweep(self) -> dict:
        """Precompute everything one sweep needs (cached across runs).

        ``aggregate[m]`` uses ``math.fsum`` — bit-identical to the
        ``statistics.fmean`` the dict TA computes per member, since fsum is
        exactly rounded and therefore order-independent.  ``first_seen[m]``
        is the 1-based round in which member ``m`` first surfaces under
        uniform round-robin sorted access: one past its best position over
        all posting lists.
        """
        state = self._sweep_state
        if state is not None:
            return state
        matrix = self._matrix
        offsets = self._offsets.astype(np.int64)
        perm = self._perm.astype(np.int64)
        lengths = np.diff(offsets)
        defined = ~np.isnan(matrix)
        counts = defined.sum(axis=1)
        aggregate: list[float | None] = []
        for row in range(matrix.shape[0]):
            values = matrix[row][defined[row]]
            if values.size:
                aggregate.append(math.fsum(values.tolist()) / values.size)
            else:
                aggregate.append(None)
        positions = np.arange(perm.size) - np.repeat(offsets[:-1], lengths)
        first_seen = np.full(matrix.shape[0], _UNSEEN, dtype=np.int64)
        np.minimum.at(first_seen, perm, positions)
        first_seen[first_seen < _UNSEEN] += 1
        nonempty = lengths > 0
        sorted_values = (
            matrix[perm, np.repeat(np.arange(lengths.size), lengths)]
            if perm.size
            else np.empty(0)
        )
        state = {
            "lengths": lengths,
            "counts": counts,
            "aggregate": aggregate,
            "first_seen": first_seen,
            "tiebreaks": [str(member) for member in self._members],
            "complete": not np.isnan(matrix).any(),
            "frontier_starts": offsets[:-1][nonempty],
            "frontier_lengths": lengths[nonempty],
            "sorted_values": sorted_values,
            "by_round": None,
        }
        by_round: dict[int, list[int]] = {}
        for row in range(matrix.shape[0]):
            seen = int(first_seen[row])
            if seen < _UNSEEN:
                by_round.setdefault(seen, []).append(row)
        state["by_round"] = by_round
        self._sweep_state = state
        return state

    def run_sweep(self, k: int, order: str) -> TopKResult:
        """The threshold algorithm over the columnar arrays.

        Replays :func:`repro.core.fagin.top_k` exactly — same rounds, same
        heap tie-breaks, same fsum-exact threshold and early-stop test, and
        the same cost model (``sorted_accesses`` = every successful
        round-robin probe up to the stopping round; ``random_accesses`` =
        one per defined cell of every member surfaced by then) — but the
        per-entry work is replaced by precomputed aggregates and frontier
        gathers over the value block.
        """
        descending = order == "most"
        if descending != self.descending:
            raise AlgorithmError(
                f"index family is sorted {'descending' if self.descending else 'ascending'}; "
                f"cannot sweep order {order!r}"
            )
        self.reset_stats()
        state = self._prepare_sweep()
        sign = 1.0 if descending else -1.0
        k = min(k, len(self._members))
        lengths = state["lengths"]
        aggregate = state["aggregate"]
        tiebreaks = state["tiebreaks"]
        sorted_values = state["sorted_values"]
        frontier_starts = state["frontier_starts"]
        frontier_lengths = state["frontier_lengths"]
        natural_rounds = int(lengths.max()) + 1 if lengths.size else 0
        heap: list[tuple[float, str, int]] = []
        rounds = 0
        early_stopped = False
        for current in range(1, natural_rounds + 1):
            rounds = current
            for row in state["by_round"].get(current, ()):
                entry = (sign * aggregate[row], tiebreaks[row], row)
                if len(heap) < k:
                    heapq.heappush(heap, entry)
                elif entry > heap[0]:
                    heapq.heapreplace(heap, entry)
            if state["complete"] and frontier_lengths.size and len(heap) == k:
                cursor = frontier_starts + np.minimum(current, frontier_lengths) - 1
                frontier = sorted_values[cursor]
                threshold = math.fsum(frontier.tolist()) / frontier.size
                if heap[0][0] >= sign * threshold:
                    early_stopped = True
                    break
        if rounds:
            self.stats.record_sorted(int(np.minimum(rounds, lengths).sum()))
            seen = state["first_seen"] <= rounds
            self.stats.record_random(int(state["counts"][seen].sum()))
        ordered = sorted(heap, reverse=True)
        entries = tuple(
            (self._members[row], aggregate[row]) for _, __, row in ordered
        )
        return TopKResult(
            entries=entries,
            order=order,
            rounds=rounds,
            stats=self.stats,
            early_stopped=early_stopped,
        )


# ----------------------------------------------------------------------
# Columnar F-Box
# ----------------------------------------------------------------------


class ColumnarFBox(FBox):
    """An :class:`FBox` whose materializations live in columnar storage.

    Unbound, it behaves like the dict F-Box with flat arrays underneath.
    Bound to a :class:`SegmentSpace` (via :meth:`bind_segment`), every
    build and delta is published as a new segment generation, and a cold
    instance *attaches* to a published segment — adopting the cube and
    every published family without recomputing anything — whenever the
    segment's domains match this box's (a stale segment is rebuilt over).
    """

    def __init__(
        self,
        engine,
        groups: Sequence[Group],
        queries: Sequence[str],
        locations: Sequence[str],
    ) -> None:
        super().__init__(engine, groups, queries, locations)
        self._store: ColumnarStore | None = None
        self._space: SegmentSpace | None = None
        self._dataset_name: str | None = None
        self._measure_name: str | None = None
        self.segment_attaches = 0

    def bind_segment(self, space: SegmentSpace, dataset: str, measure: str) -> None:
        """Tie this box to one ``(dataset, measure)`` segment in ``space``."""
        self._space = space
        self._dataset_name = dataset
        self._measure_name = measure

    # -- segment lifecycle ---------------------------------------------

    def _publish(self) -> None:
        if self._space is None or self._store is None:
            return
        generation = self._space.publish(
            self._dataset_name, self._measure_name, self._store.encode
        )
        self._store.generation = generation

    def _try_attach(self) -> ColumnarStore | None:
        if self._space is None:
            return None
        try:
            generation, segment = self._space.attach(
                self._dataset_name, self._measure_name
            )
            store = ColumnarStore.decode(segment)
        except SegmentMiss:
            return None
        store.generation = generation
        cube = store.cube
        if (
            cube.groups != self.groups
            or cube.queries != self.queries
            or cube.locations != self.locations
        ):
            # The segment reflects a dataset state this box does not; a
            # fresh build below republishes over it.
            return None
        return store

    # -- materialization overrides -------------------------------------

    @property
    def cube(self) -> UnfairnessCube:
        if self._cube is None:
            with self._build_lock:
                if self._cube is None:
                    store = self._try_attach()
                    if store is None:
                        computed = UnfairnessCube.compute(
                            self.engine, self.groups, self.queries, self.locations
                        )
                        store = ColumnarStore.from_cube(computed)
                        self._store = store
                        self._cube = store.cube
                        self.cube_builds += 1
                        self._publish()
                    else:
                        self._store = store
                        self._cube = store.cube
                        self.segment_attaches += 1
                        for (dimension, descending), (offsets, perm) in (
                            store.families.items()
                        ):
                            self._families[(dimension, descending)] = ColumnarFamily(
                                store.cube, dimension, descending, offsets, perm
                            )
        return self._cube

    def family(self, dimension: str, order: str = "most") -> ColumnarFamily:
        if order not in ("most", "least"):
            raise AlgorithmError(f"order must be 'most' or 'least', got {order!r}")
        descending = order == "most"
        key = (dimension, descending)
        if key not in self._families:
            cube = self.cube  # materialize outside the family check
            with self._build_lock:
                if key not in self._families:
                    if dimension not in (GROUP, QUERY, LOCATION):
                        raise IndexError_(
                            f"unknown dimension {dimension!r}; "
                            "use group/query/location"
                        )
                    self._store.add_family(dimension, descending)
                    offsets, perm = self._store.families[key]
                    self._families[key] = ColumnarFamily(
                        cube, dimension, descending, offsets, perm
                    )
                    self.family_builds += 1
                    self._publish()
        return self._families[key]

    def apply_observations(
        self,
        queries: Sequence[str],
        locations: Sequence[str],
        dirty_pairs: Sequence[tuple[str, str]],
    ) -> dict[str, int]:
        """Incremental delta over columnar state, published as a generation.

        Byte-identical to the dict core: the cube delta recomputes exactly
        the dirty columns, every permutation array comes from the same
        stable argsort a cold build would run, and ``lists_rebuilt`` counts
        posting lists whose own cells changed (plus lists for new pairs) —
        the same exact-staleness predicate as
        :func:`repro.core.indices.refresh_family`.  The columnar refresh
        re-derives the permutation arrays in one vectorized argsort per
        family, which costs about as much as splicing a single stale column.
        """
        queries = list(queries)
        locations = list(locations)
        with self._build_lock:
            self.queries = queries
            self.locations = locations
            if self._cube is None:
                return {"cells_recomputed": 0, "lists_rebuilt": 0}
            old = self._cube
            fresh = UnfairnessCube.compute_delta(
                old, self.engine, queries, locations, dirty_pairs
            )
            padded = np.full(fresh.values.shape, np.nan)
            g, q, l = old.values.shape
            padded[:g, :q, :l] = old.values
            changed = ~(
                (padded == fresh.values)
                | (np.isnan(padded) & np.isnan(fresh.values))
            )
            stale = {
                GROUP: changed.any(axis=0),
                QUERY: changed.any(axis=1),
                LOCATION: changed.any(axis=2),
            }
            old_extent = {
                GROUP: (len(old.queries), len(old.locations)),
                QUERY: (len(old.groups), len(old.locations)),
                LOCATION: (len(old.groups), len(old.queries)),
            }
            rebuilt_total = 0
            store = ColumnarStore.from_cube(fresh, list(self._families))
            families: dict[tuple[str, bool], ColumnarFamily] = {}
            for (dimension, descending) in list(self._families):
                offsets, perm = store.families[(dimension, descending)]
                families[(dimension, descending)] = ColumnarFamily(
                    fresh, dimension, descending, offsets, perm
                )
                flags = stale[dimension]
                rows, cols = old_extent[dimension]
                rebuilt_total += int(flags[:rows, :cols].sum())
                rebuilt_total += flags.size - rows * cols  # lists for new pairs
            self._cube = fresh
            self._store = store
            self._families = families
            cells = len(dirty_pairs) * len(self.groups)
            self.delta_applies += 1
            self.cells_recomputed += cells
            self.lists_rebuilt += rebuilt_total
            self._publish()
            return {"cells_recomputed": cells, "lists_rebuilt": rebuilt_total}


class AttachedFBox:
    """A read-only F-Box over someone else's published segment (the front).

    Supports exactly the engine-free surface the read endpoints use —
    ``quantify`` / ``quantify_many`` / ``compare`` / ``aggregate`` /
    ``signature`` — against zero-copy views of the owning worker's state.
    Anything requiring the dataset itself (``/explain``, ingest) stays on
    the worker.  Construct via :meth:`attach`, which reuses the space's
    cached view (and so its families and prepared sweeps) until the head
    changes; raises :class:`SegmentMiss` when no live, decodable segment
    exists.
    """

    def __init__(self, store: ColumnarStore) -> None:
        self._store = store
        self._families: dict[tuple[str, bool], ColumnarFamily] = {}
        self._build_lock = threading.RLock()
        for (dimension, descending), (offsets, perm) in store.families.items():
            self._families[(dimension, descending)] = ColumnarFamily(
                store.cube, dimension, descending, offsets, perm
            )

    @classmethod
    def attach(
        cls, space: SegmentSpace, dataset: str, measure: str
    ) -> "AttachedFBox":
        def build(generation: int, segment) -> "AttachedFBox":
            store = ColumnarStore.decode(segment)
            store.generation = generation
            return cls(store)

        return space.view(dataset, measure, build)

    @property
    def generation(self) -> int:
        return self._store.generation

    @property
    def cube(self) -> UnfairnessCube:
        return self._store.cube

    def family(self, dimension: str, order: str = "most") -> ColumnarFamily:
        if order not in ("most", "least"):
            raise AlgorithmError(f"order must be 'most' or 'least', got {order!r}")
        descending = order == "most"
        key = (dimension, descending)
        if key not in self._families:
            with self._build_lock:
                if key not in self._families:
                    if dimension not in (GROUP, QUERY, LOCATION):
                        raise IndexError_(
                            f"unknown dimension {dimension!r}; "
                            "use group/query/location"
                        )
                    matrix = member_matrix(self.cube.values, dimension)
                    offsets, perm = sorted_columns(matrix, descending)
                    self._families[key] = ColumnarFamily(
                        self.cube, dimension, descending, offsets, perm
                    )
        return self._families[key]

    def quantify(
        self, dimension: str, k: int, order: str = "most", algorithm: str = "fagin"
    ) -> TopKResult:
        from .fagin import naive_top_k, top_k

        if algorithm == "fagin":
            family = self.family(dimension, order)
            with family.query_lock:
                return top_k(self.cube, dimension, k, order=order, family=family)
        if algorithm == "naive":
            return naive_top_k(self.cube, dimension, k, order=order)
        raise AlgorithmError(
            f"algorithm must be 'fagin' or 'naive', got {algorithm!r}"
        )

    def quantify_many(self, dimension: str, ks, order: str = "most"):
        from .batch import multi_top_k

        family = self.family(dimension, order)
        with family.query_lock:
            return multi_top_k(self.cube, dimension, ks, order=order, family=family)

    def compare(self, dimension: str, r1, r2, breakdown: str, algorithm: str = "cube"):
        from .comparison import compare, compare_with_indices

        if algorithm == "cube":
            return compare(self.cube, dimension, r1, r2, breakdown)
        if algorithm == "indices":
            return compare_with_indices(self.cube, dimension, r1, r2, breakdown)
        raise AlgorithmError(
            f"algorithm must be 'cube' or 'indices', got {algorithm!r}"
        )

    def aggregate(self, **selection) -> float:
        return self.cube.aggregate(**selection)
