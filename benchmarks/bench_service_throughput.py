"""Service throughput: warm-cache vs cold-cache requests/sec, p50/p95.

Boots a real F-Box server on an ephemeral port (small six-city datasets),
then measures three request populations over HTTP:

* **build** — the very first request, which materializes the cube;
* **cold cache** — distinct parameterizations (every one a cache miss that
  runs a real top-k / comparison on the shared, already-built F-Box);
* **warm cache** — one hot request repeated (every one an LRU hit).

Run under pytest it writes ``benchmarks/results/service_throughput.txt``.
It is also a script, for CI smoke runs that should *not* overwrite the
committed results::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py --quick
"""

from __future__ import annotations

import argparse
import json
import statistics
import threading
import urllib.request
from time import perf_counter

from _util import emit
from repro.core.attributes import default_schema  # noqa: F401  (import check)
from repro.experiments.datasets import build_taskrabbit_dataset
from repro.service.registry import SMALL_CITIES, DatasetRegistry, DatasetSpec
from repro.service.server import make_server

COLD_REQUESTS = 60
WARM_REQUESTS = 300
QUICK_COLD_REQUESTS = 15
QUICK_WARM_REQUESTS = 60


def _post(base: str, path: str, payload: dict) -> float:
    """One POST; returns elapsed seconds (asserts HTTP 200)."""
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    started = perf_counter()
    with urllib.request.urlopen(request) as response:
        assert response.status == 200
        response.read()
    return perf_counter() - started


def _percentiles(latencies: list[float]) -> tuple[float, float]:
    ordered = sorted(latencies)
    p50 = ordered[len(ordered) // 2]
    p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
    return p50, p95


def _cold_population(count: int) -> list[dict]:
    """Distinct request parameterizations — every one a cache miss."""
    population = []
    for dimension in ("group", "query", "location"):
        for order in ("most", "least"):
            for k in range(1, 6):
                population.append(
                    {
                        "dataset": "taskrabbit",
                        "dimension": dimension,
                        "order": order,
                        "k": k,
                    }
                )
    return population[:count]


def _run(dataset, cold: int, warm: int) -> dict:
    """Boot one server and measure the three populations."""
    registry = DatasetRegistry()
    registry.register(
        DatasetSpec(name="taskrabbit", site="taskrabbit", loader=lambda: dataset)
    )
    server = make_server(registry=registry, port=0, request_timeout=300.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = server.url
    try:
        build_seconds = _post(
            base, "/v1/quantify", {"dataset": "taskrabbit", "dimension": "group", "k": 11}
        )
        cold_latencies = [
            _post(base, "/v1/quantify", payload) for payload in _cold_population(cold)
        ]
        hot = {"dataset": "taskrabbit", "dimension": "group", "k": 11}
        warm_latencies = [_post(base, "/v1/quantify", hot) for _ in range(warm)]
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()

    rows = []
    for label, latencies in (("cold cache", cold_latencies), ("warm cache", warm_latencies)):
        p50, p95 = _percentiles(latencies)
        rows.append(
            (
                label,
                len(latencies),
                1.0 / statistics.fmean(latencies),
                p50 * 1000.0,
                p95 * 1000.0,
            )
        )
    return {"build_seconds": build_seconds, "rows": rows}


def _report(result: dict) -> str:
    lines = [
        "Service throughput — F-Box query server (six-city TaskRabbit crawl)",
        "=" * 66,
        "",
        f"first request (cube + index build): "
        f"{result['build_seconds'] * 1000.0:.1f} ms",
        f"{'population':<12} {'requests':>8} {'req/s':>10} {'p50 ms':>9} {'p95 ms':>9}",
        f"{'-' * 12} {'-' * 8} {'-' * 10} {'-' * 9} {'-' * 9}",
    ]
    for label, count, rps, p50, p95 in result["rows"]:
        lines.append(f"{label:<12} {count:>8} {rps:>10.1f} {p50:>9.3f} {p95:>9.3f}")
    return "\n".join(lines)


def _measure(cold: int, warm: int) -> dict:
    dataset = build_taskrabbit_dataset(seed=7, cities=SMALL_CITIES)
    result = _run(dataset, cold, warm)
    cold_rps = result["rows"][0][2]
    warm_rps = result["rows"][1][2]
    assert warm_rps > cold_rps  # the cache must actually pay for itself
    return result


def test_service_throughput():
    emit("service_throughput", _report(_measure(COLD_REQUESTS, WARM_REQUESTS)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke sizing; prints the table without touching results/",
    )
    args = parser.parse_args()
    cold = QUICK_COLD_REQUESTS if args.quick else COLD_REQUESTS
    warm = QUICK_WARM_REQUESTS if args.quick else WARM_REQUESTS
    result = _measure(cold, warm)
    if args.quick:
        print(_report(result))
    else:
        emit("service_throughput", _report(result))


if __name__ == "__main__":
    main()
