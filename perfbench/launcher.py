"""The benchmark's F-Box server entry point.

Runs the real service (``repro.service.server.serve``) with the serving
path named explicitly: the columnar core behind the asyncio transport,
the default cache and admission settings, and ``--shards`` worker
processes (0 = in-process execution).  The registry starts empty; the
benchmark registers its datasets through ``POST /v1/datasets``.  The
segment namespace is fixed by ``--namespace`` so the caller can check
``/dev/shm`` for leftovers after the process exits.

With ``--trace-dir`` the launcher wraps the layer functions
(:mod:`tracing`) before the server starts and writes the front's spans
there when the server stops; shard workers write their own on exit.

    python3 perfbench/launcher.py --namespace pb1234 --token T [--shards 2]
        [--trace-dir DIR]

The service prints ``F-Box service listening on http://HOST:PORT ...`` on
stdout once it accepts connections; SIGTERM drains and stops it.
"""

from __future__ import annotations

import argparse
import ctypes
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def _exit_with_parent() -> None:
    """Ask the kernel for a SIGTERM (a drain) if the benchmark process dies,
    so a killed benchmark leaves no server behind."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(1, signal.SIGTERM) != 0:  # 1 = PR_SET_PDEATHSIG
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=0)
    parser.add_argument("--namespace", required=True)
    parser.add_argument("--token", required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)
    _exit_with_parent()

    tracer = None
    if args.trace_dir:
        import tracing

        tracer = tracing.install(Path(args.trace_dir))

    from repro.service.registry import DatasetRegistry
    from repro.service.server import serve

    registry = DatasetRegistry(core="columnar", namespace=args.namespace)
    try:
        return serve(
            registry=registry,
            port=0,
            quiet=True,
            backend="asyncio",
            core="columnar",
            shards=args.shards,
            admin_token=args.token,
        )
    finally:
        if tracer is not None:
            tracer.write()


if __name__ == "__main__":
    sys.exit(main())
