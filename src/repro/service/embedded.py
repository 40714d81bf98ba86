"""Run a :class:`~repro.service.server.CompileServer` inside this process.

The service tests, the benchmark harness and ``repro-spill loadgen
--self-serve`` all need a real, reachable server without managing a child
process: :class:`EmbeddedServer` runs one on a dedicated thread with its own
event loop (the :class:`~repro.service.endpoint.BackgroundEndpoint` runner
the fleet supervisor shares), binds an ephemeral port, and tears the whole
thing down — through the same graceful-drain path a SIGTERM takes — when the
context exits.

The embedded server is the real thing (same admission control, batching,
coalescing and cache sharing), only the process boundary is missing; the CI
service job covers the cross-process path by launching ``repro-spill
serve`` as an actual child process.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.store import CacheSpec
from repro.service.endpoint import BackgroundEndpoint
from repro.service.server import (
    DEFAULT_BATCH_MAX_REQUESTS,
    DEFAULT_BATCH_WINDOW_MS,
    DEFAULT_MAX_QUEUE,
    CompileServer,
)


class EmbeddedServer(BackgroundEndpoint):
    """A compile server on a background thread, as a context manager.

    ``with EmbeddedServer(...) as server:`` yields an object exposing
    ``host``, ``port`` (the ephemeral bind), the live ``server`` instance
    and :meth:`stats` — everything a client in the calling thread needs.
    """

    NAME = "embedded compile server"
    THREAD_NAME = "repro-service"

    def __init__(
        self,
        workers: Optional[int] = 1,
        cache: CacheSpec = None,
        max_queue: int = DEFAULT_MAX_QUEUE,
        batch_max_requests: int = DEFAULT_BATCH_MAX_REQUESTS,
        batch_window_ms: float = DEFAULT_BATCH_WINDOW_MS,
        host: str = "127.0.0.1",
        startup_timeout: float = 30.0,
        peer: Optional[str] = None,
    ):
        super().__init__(startup_timeout)
        self.host = host
        self._kwargs = dict(
            host=host,
            port=0,
            workers=workers,
            cache=cache,
            max_queue=max_queue,
            batch_max_requests=batch_max_requests,
            batch_window_ms=batch_window_ms,
            peer=peer,
        )

    @property
    def server(self) -> Optional[CompileServer]:
        """The live compile server (None until started)."""

        return self.endpoint

    def _build_endpoint(self) -> CompileServer:
        return CompileServer(**self._kwargs)
