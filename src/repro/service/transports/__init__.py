"""The transport adapter: sockets in, :class:`~repro.service.app.Request` out.

:mod:`repro.service.transports.aio` is a thin shell around one shared
:class:`~repro.service.app.FBoxApp`: an ``asyncio.start_server`` front with
a stdlib HTTP/1.1 parser and keep-alive.  CPU-bound work runs on the app's
bounded executor so the event loop never blocks.  The server exposes
``serve_forever`` / ``shutdown`` / ``server_close`` / ``drain`` / ``url`` /
``context`` for tests, benchmarks, and ``serve()``.
"""

from __future__ import annotations

__all__ = ["AioFBoxServer"]

from .aio import AioFBoxServer
