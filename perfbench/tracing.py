"""Span recording for the traced server run, and the per-layer analysis.

The traced launcher (``launcher.py --trace-dir``) calls :func:`install`
before the server starts.  It replaces public functions of each layer with
wrappers that record one span per call: ``(span_id, parent_id,
request_id, name, start, end, error, tag)``.  Nothing inside the program
changes; the wrappers live here.

* The request id comes from the ``X-Bench-Id`` header the benchmark
  client sends, and travels in a context variable.  The executor hop
  copies the context into the pool thread, so handler spans keep their
  request id and parent.
* Spans stay in memory, one list per process.  The front writes its list
  when the server stops; shard workers fork from the front (inheriting the
  wrappers) and write theirs when they exit.
* ``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, so span times from
  the front and the workers share one time base.

:func:`analyse` turns the span files plus the client's latencies into the
per-layer metrics.  A span's self time is its duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import itertools
import os
import pickle
import statistics
import time
from pathlib import Path

_clock = time.perf_counter

#: Span names of the layer functions; see ``install`` for what each wraps.
ROOT = "app.handle_async"
HANDLER_PATHS = ("/quantify", "/compare", "/batch", "/whatif", "/observations")
FRONT_READ_PATHS = ("/quantify", "/compare")


class Tracer:
    """Per-process span buffer plus the wrapping helpers."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        # (current span id, request id) of the running code.
        self.current = contextvars.ContextVar("perfbench_span", default=(0, None))
        # When admission control granted the running request.
        self.admitted = contextvars.ContextVar("perfbench_admitted", default=None)

    # -- recording ------------------------------------------------------

    def _record(self, name, parent, request_id, start, end, error=None, tag=None):
        self.spans.append(
            (next(self._ids), parent, request_id, name, start, end, error, tag)
        )

    def sync(self, fn, name, tag=None):
        """Wrap a plain function; ``tag(result, *args, **kwargs)`` labels
        the span."""
        current, spans, ids = self.current, self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, request_id = current.get()
            span_id = next(ids)
            token = current.set((span_id, request_id))
            error = result = None
            start = _clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = _clock()
                current.reset(token)
                spans.append(
                    (
                        span_id, parent, request_id, name, start, end, error,
                        tag(result, *args, **kwargs) if tag is not None else None,
                    )
                )

        return wrapper

    def coroutine(self, fn, name, on_done=None):
        current, spans, ids = self.current, self.spans, self._ids

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            parent, request_id = current.get()
            span_id = next(ids)
            token = current.set((span_id, request_id))
            error = None
            start = _clock()
            try:
                return await fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = _clock()
                current.reset(token)
                spans.append((span_id, parent, request_id, name, start, end, error, None))
                if on_done is not None and error is None:
                    on_done(end)

        return wrapper

    def root(self, fn):
        """The request span: ``FBoxApp._handle_async`` (what ``handle_async``
        returns), keyed by the client's ``X-Bench-Id``."""
        current, admitted, spans, ids = self.current, self.admitted, self.spans, self._ids

        @functools.wraps(fn)
        async def wrapper(app, request):
            request_id = (request.headers or {}).get("x-bench-id")
            span_id = next(ids)
            token = current.set((span_id, request_id))
            admitted_token = admitted.set(None)
            start = _clock()
            try:
                return await fn(app, request)
            finally:
                end = _clock()
                admitted.reset(admitted_token)
                current.reset(token)
                spans.append((span_id, 0, request_id, ROOT, start, end, None, None))

        return wrapper

    def executor(self, ensure):
        """Wrap ``FBoxApp._ensure_executor`` so every submit carries the
        caller's context across the hop and records the wait."""
        tracer = self

        @functools.wraps(ensure)
        def wrapper(app):
            return _TracedExecutor(ensure(app), tracer)

        return wrapper

    def _run_hopped(self, fn, ready, args, kwargs):
        parent, request_id = self.current.get()
        self._record("executor.wait", parent, request_id, ready, _clock())
        return fn(*args, **kwargs)

    # -- output ---------------------------------------------------------

    def write(self) -> None:
        """Write this process's spans (one pickle per pid)."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        target = self.out_dir / f"spans-{os.getpid()}.pickle"
        with open(target, "wb") as handle:
            pickle.dump(self.spans, handle, protocol=pickle.HIGHEST_PROTOCOL)

    def forked(self) -> None:
        """In a forked shard worker: start an empty buffer and write it on
        ``os._exit`` (the worker's only way out)."""
        self.spans.clear()
        real_exit = os._exit

        def _exit(code):
            try:
                self.write()
            finally:
                real_exit(code)

        os._exit = _exit


class _TracedExecutor:
    """A thin proxy over the app's pool: ``submit`` runs ``fn`` inside a copy
    of the submitting context and records admission-granted → start."""

    def __init__(self, executor, tracer: Tracer) -> None:
        self._executor = executor
        self._tracer = tracer

    def submit(self, fn, *args, **kwargs):
        tracer = self._tracer
        ready = tracer.admitted.get()
        if ready is None:
            ready = _clock()
        context = contextvars.copy_context()
        return self._executor.submit(
            context.run, tracer._run_hopped, fn, ready, args, kwargs
        )

    def __getattr__(self, name):
        return getattr(self._executor, name)


def _wrap_method(tracer, owner, attr, name, tag=None):
    method = owner.__dict__[attr]
    if isinstance(method, classmethod):
        setattr(owner, attr, classmethod(tracer.sync(method.__func__, name, tag)))
    else:
        setattr(owner, attr, tracer.sync(method, name, tag))


def install(out_dir: Path) -> Tracer:
    """Wrap every layer function named in the benchmark's layer map."""
    from repro.core.colstore import AttachedFBox, SegmentSpace
    from repro.core.cube import UnfairnessCube
    from repro.core.fbox import FBox
    from repro.service import app as app_module
    from repro.service import handlers, shard_worker
    from repro.service.ingest import IngestManager
    from repro.service.registry import DatasetRegistry
    from repro.service.resilience import AdmissionController
    from repro.service.sharding import ShardRouter

    tracer = Tracer(out_dir)
    FBoxApp = app_module.FBoxApp

    # service.app: the request span, the fast path, the executor hop.
    FBoxApp._handle_async = tracer.root(FBoxApp.__dict__["_handle_async"])
    _wrap_method(
        tracer, FBoxApp, "_fast_path", "app.fast_path",
        tag=lambda result, *args: result is not None,
    )
    FBoxApp._ensure_executor = tracer.executor(FBoxApp.__dict__["_ensure_executor"])

    # service.resilience: admission wait; its end is "admission granted".
    AdmissionController.acquire_async = tracer.coroutine(
        AdmissionController.__dict__["acquire_async"],
        "admission.wait",
        on_done=tracer.admitted.set,
    )

    # service.handlers: the POST route table (copied by every FBoxApp at
    # construction, so the shard workers' apps pick the wrappers up too).
    for path in HANDLER_PATHS:
        app_module.POST_ROUTES[path] = tracer.sync(
            app_module.POST_ROUTES[path], "handlers" + path.replace("/", ".")
        )

    # service.encoding, as the handlers module calls it.
    for name in ("encode_topk", "encode_comparison", "encode_whatif", "encode_batch"):
        setattr(handlers, name, tracer.sync(getattr(handlers, name), "encoding." + name))

    # service.registry: materialization and the write apply.
    _wrap_method(
        tracer, DatasetRegistry, "dataset", "registry.dataset",
        tag=lambda result, registry, name: ("dataset", name),
    )
    _wrap_method(
        tracer, DatasetRegistry, "fbox", "registry.fbox",
        tag=lambda result, registry, name, measure=None: ("fbox", name, measure),
    )
    _wrap_method(tracer, DatasetRegistry, "apply_observations", "registry.apply")

    # service.ingest.
    _wrap_method(tracer, IngestManager, "ingest", "ingest.ingest")

    # service.sharding: front reads, routed calls, the worker's frame call.
    app_module.handle_front_read = tracer.sync(
        app_module.handle_front_read, "sharding.front_read",
        tag=lambda result, context, path, payload: path,
    )
    _wrap_method(tracer, ShardRouter, "execute", "sharding.routed")
    shard_worker._handle_call = tracer.sync(shard_worker._handle_call, "worker.call")

    # core.colstore: segment publish and attach.
    _wrap_method(tracer, SegmentSpace, "publish", "colstore.publish")
    _wrap_method(tracer, AttachedFBox, "attach", "colstore.attach")

    # core.cube: the delta recompute behind every write.
    _wrap_method(tracer, UnfairnessCube, "compute_delta", "cube.delta")

    # core compute: the in-process columnar F-Box (inherits FBox's methods)
    # and the front's attached view.
    for attr in ("quantify", "quantify_many", "compare", "whatif"):
        _wrap_method(tracer, FBox, attr, "core." + attr)
    for attr in ("quantify", "quantify_many", "compare"):
        _wrap_method(tracer, AttachedFBox, attr, "core." + attr)

    os.register_at_fork(after_in_child=tracer.forked)
    return tracer


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def load_spans(out_dir: Path) -> dict[int, list[tuple]]:
    """Span lists by pid, from every file the traced processes wrote."""
    spans = {}
    for path in sorted(Path(out_dir).glob("spans-*.pickle")):
        pid = int(path.stem.split("-", 1)[1])
        with open(path, "rb") as handle:
            spans[pid] = pickle.load(handle)
    return spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id → duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[4], span[5]))
    return {
        span[0]: (span[5] - span[4]) - _covered(children.get(span[0], []))
        for span in spans
    }


def _p(values, fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _ms(values, fraction: float = 0.5) -> float:
    return _p(values, fraction) * 1e3


def analyse(spans_by_pid: dict[int, list[tuple]], front_pid: int, client: dict) -> dict:
    """Per-layer metrics from the traced run, plus span counts by name.

    ``client`` holds ``latency`` (request id → client seconds), ``posts``
    (POSTs sent) and ``reads`` (read requests sent) for the timed phase;
    spans are restricted to the timed-phase window ``client["window"]``,
    except the set-up figures, which use ``client["setup_window"]``.
    """
    start, end = client["window"]
    timed = {
        pid: [s for s in spans if s[4] >= start and s[5] <= end]
        for pid, spans in spans_by_pid.items()
    }
    front = timed.get(front_pid, [])
    workers = [s for pid, spans in timed.items() if pid != front_pid for s in spans]
    everything = front + workers

    by_name: dict[str, list[tuple]] = {}
    for span in everything:
        by_name.setdefault(span[3], []).append(span)
    self_of = {
        (pid, span_id): value
        for pid, spans in timed.items()
        for span_id, value in self_times(spans).items()
    }

    def durations(name):
        return [s[5] - s[4] for s in by_name.get(name, [])]

    def selfs(name):
        return [
            self_of[(pid, s[0])] for pid, spans in timed.items() for s in spans if s[3] == name
        ]

    # transport: client latency minus the server's request span.
    latency = client["latency"]
    roots = {s[2]: s for s in front if s[3] == ROOT and s[2] is not None}
    transport = [
        latency[rid] - (roots[rid][5] - roots[rid][4])
        for rid in latency
        if rid in roots
    ]
    self_sum: dict[str, float] = {}
    for span in front:
        if span[2] is not None:
            self_sum[span[2]] = self_sum.get(span[2], 0.0) + self_of[(front_pid, span[0])]
    traced_total = [
        self_sum[rid] + latency[rid] - (roots[rid][5] - roots[rid][4])
        for rid in latency
        if rid in roots
    ]

    fast_hits = sum(1 for s in by_name.get("app.fast_path", []) if s[7])
    metrics = {
        "transport.p50_ms": _ms(transport),
        "app.self_p50_ms": _ms(selfs(ROOT)),
        "executor.wait_p95_ms": _ms(durations("executor.wait"), 0.95),
        "admission.wait_p95_ms": _ms(durations("admission.wait"), 0.95),
        "encoding.p50_ms": _ms(
            [d for name in by_name if name.startswith("encoding.") for d in durations(name)]
        ),
        "registry.apply_p50_ms": _ms(selfs("registry.apply")),
        "core.quantify_p50_ms": _ms(durations("core.quantify")),
        "core.quantify_many_p50_ms": _ms(durations("core.quantify_many")),
        "core.compare_p50_ms": _ms(durations("core.compare")),
        "core.whatif_p50_ms": _ms(durations("core.whatif")),
        "core.whatif_p95_ms": _ms(durations("core.whatif"), 0.95),
        "cube.delta_p50_ms": _ms(durations("cube.delta")),
        "ingest.self_p50_ms": _ms(_ingest_self(everything)),
        "colstore.publish_p50_ms": _ms(durations("colstore.publish")),
        "colstore.attach_p50_ms": _ms(durations("colstore.attach")),
        "colstore.attaches_per_read": len(by_name.get("colstore.attach", []))
        / max(1, client["reads"]),
        "sharding.front_read_share": sum(
            1 for s in by_name.get("sharding.front_read", []) if s[6] is None
        )
        / max(1, client["reads"]),
        # Other endpoints pass through handle_front_read too and always
        # route; a miss is a quantify/compare the segment could not answer.
        "sharding.misses": float(
            sum(
                1 for s in by_name.get("sharding.front_read", [])
                if s[6] is not None and s[7] in FRONT_READ_PATHS
            )
        ),
        "sharding.routed_p50_ms": _ms(durations("sharding.routed")),
        "sharding.hop_p50_ms": _ms(_hops(front, workers)),
        # Summed self times plus transport, per request, against what the
        # untraced run's client saw: what the trace adds or fails to cover.
        "trace.residual_ms": (
            (statistics.fmean(traced_total) - client["untraced_mean_s"]) * 1e3
            if traced_total
            else 0.0
        ),
    }
    metrics["app.fast_path_share"] = fast_hits / max(1, client["posts"])
    for path in HANDLER_PATHS:
        name = "handlers" + path.replace("/", ".")
        metrics[name + ".self_p50_ms"] = _ms(selfs(name))
    metrics["registry.build_s"] = _build_seconds(spans_by_pid)
    metrics["setup.compute_s"] = _setup_compute(spans_by_pid, client["setup_window"])
    return metrics, {name: len(spans) for name, spans in by_name.items()}


def _setup_compute(spans_by_pid: dict[int, list[tuple]], window) -> float:
    """Core compute inside the set-up window: the lazy cube and index
    builds behind each dataset's first answer."""
    total = 0.0
    for spans in spans_by_pid.values():
        core = {s[0] for s in spans if s[3].startswith("core.")}
        for span in spans:
            if (
                span[3].startswith("core.")
                and span[1] not in core
                and window[0] <= span[4]
                and span[5] <= window[1]
            ):
                total += span[5] - span[4]
    return total


def _ingest_self(spans: list[tuple]) -> list[float]:
    """``IngestManager.ingest`` minus its registry apply (ledger, journal,
    trend ring, alerts)."""
    applies: dict[int, float] = {}
    for span in spans:
        if span[3] == "registry.apply":
            applies[span[1]] = applies.get(span[1], 0.0) + (span[5] - span[4])
    return [
        (s[5] - s[4]) - applies.get(s[0], 0.0) for s in spans if s[3] == "ingest.ingest"
    ]


def _hops(front: list[tuple], workers: list[tuple]) -> list[float]:
    """Routed time minus the worker-side call it contains.

    A front ``sharding.routed`` span and the worker ``worker.call`` span it
    caused are paired by time containment on the shared monotonic clock.
    """
    calls = sorted((s[4], s[5]) for s in workers if s[3] == "worker.call")
    starts = [c[0] for c in calls]
    hops = []
    for span in front:
        if span[3] != "sharding.routed":
            continue
        index = bisect.bisect_left(starts, span[4])
        inside = 0.0
        while index < len(calls) and calls[index][0] < span[5]:
            if calls[index][1] <= span[5]:
                inside = max(inside, calls[index][1] - calls[index][0])
            index += 1
        if inside:
            hops.append((span[5] - span[4]) - inside)
    return hops


def _build_seconds(spans_by_pid: dict[int, list[tuple]]) -> float:
    """Sum over processes of each first dataset/F-Box materialization,
    counting a build nested in another registry span once."""
    total = 0.0
    for spans in spans_by_pid.values():
        registry = {s[0]: s for s in spans if s[3] in ("registry.dataset", "registry.fbox")}
        seen = set()
        for span in sorted(registry.values(), key=lambda s: s[4]):
            if span[7] in seen:
                continue
            seen.add(span[7])
            if span[1] in registry:
                continue  # the enclosing registry span already counts it
            total += span[5] - span[4]
    return total
