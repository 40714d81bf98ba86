"""The asyncio compile server: admission control, micro-batching, coalescing.

One resident :class:`CompileServer` process amortizes everything the batch
pipeline already built — the parallel sharding engine, the content-addressed
compile cache, the interned scenario registry — across a stream of
concurrent JSON-lines connections (:mod:`repro.service.protocol`).  The
connection loop, handshake, send and drain lifecycle are the endpoint core
it shares with the fleet router (:mod:`repro.service.endpoint`); this
module is the request pipeline behind it:

* **Admission control** — a bounded queue (``max_queue``).  When it is
  full, new work is rejected *immediately* with an ``overloaded`` error;
  the server never buffers unbounded request state.  Clients retry with
  backoff (:mod:`repro.service.client`).
* **Micro-batching** — a single dispatcher collects admitted entries until
  ``batch_max_requests`` are waiting or ``batch_window_ms`` has passed
  since the first one, then compiles the whole batch through
  :func:`repro.pipeline.compiler.compile_many` (``workers=`` shards big
  batches over the process pool) off the event loop.  Batches execute one
  at a time; the queue absorbs arrivals in the meantime.
* **In-flight coalescing** — entries are keyed by their
  :func:`~repro.ir.fingerprint.procedure_cache_key`.  A request identical
  to one already admitted (same program, profile, target, techniques and
  cache policy) attaches to the existing entry instead of consuming a
  queue slot or a compile: one compile fans out to every waiter, each
  response marked ``coalesced``.
* **Shared cache front** — a single :class:`~repro.cache.store.CompileCache`
  serves every connection: admitted-but-cached work is answered at
  admission time (status ``hit``) without touching the queue, and batch
  dispatch passes the same store to ``compile_many`` so fresh results are
  written back for the next caller.  Requests may opt out per-request
  (``cache: "bypass"``).
* **One pipeline for compile and lint** — both kinds pass the same steps
  (admission, cache front, peer front, coalescing, execution, publish to
  the fleet tier before any waiter resolves) through one in-flight map;
  they differ only in a small per-kind table (:class:`_KindSteps`): lint
  has no admission steps and runs in a worker thread instead of the batch
  queue.
* **Graceful drain** — on SIGTERM/SIGINT (or a ``shutdown`` request) the
  server stops admitting (``shutting_down`` errors), finishes every queued
  and in-flight compile, flushes the responses, then closes.

Served results are **bit-identical** to a direct ``compile_many`` on the
same inputs: the pipeline is deterministic and both sides build the
response payload with :func:`repro.service.protocol.result_payload` — the
property the serving test suite (``tests/service/``) pins down.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.cache.store import CacheSpec, resolve_cache
from repro.service.endpoint import Endpoint
from repro.service.health import HealthMonitor
from repro.service.metrics import ServiceMetrics, cache_stats_payload
from repro.service.policy import PolicyEngine, default_engine
from repro.service.peering import PeerCacheClient, parse_peer_address
from repro.service.protocol import (
    CompileAnswer,
    ResolvedCompile,
    compile_lint_rejection,
    error_message,
    lint_result_message,
    result_payload,
    run_lint_request,
)

#: Default bound on admitted-but-undispatched entries.
DEFAULT_MAX_QUEUE = 256

#: Default micro-batch flush bounds: dispatch when this many unique entries
#: are waiting ...
DEFAULT_BATCH_MAX_REQUESTS = 16

#: ... or when this much time has passed since the first waiting entry.
DEFAULT_BATCH_WINDOW_MS = 10.0

#: Default seconds between health ticks (rolling-window feed + policy step).
DEFAULT_HEALTH_INTERVAL = 1.0


@dataclass
class _PendingEntry:
    """One admitted unit of unique compile work and its waiters' future."""

    resolved: ResolvedCompile
    future: "asyncio.Future[CompileAnswer]"
    enqueued_at: float


@dataclass(frozen=True)
class _KindSteps:
    """How one request kind differs on its way through the server pipeline.

    Lint answers reuse :class:`CompileAnswer` as their record (no pass
    timings, no batch); only :attr:`message` renders them differently.
    """

    #: Admission run before any cache lookup; returns a rejection or None.
    admit: Optional[Callable[[Any], Awaitable[Optional[Dict[str, Any]]]]]
    #: A local cache entry as an answer, or None if it is not one.
    from_cache: Callable[[Any, Any], Optional[CompileAnswer]]
    #: Whether fresh work takes a batch-queue slot (and can find it full).
    queued: bool
    #: Start fresh work; its outcome settles the in-flight future.
    execute: Callable[[Any, "asyncio.Future[CompileAnswer]", float], Awaitable[None]]
    #: The wire form of an answer to request ``id``.
    message: Callable[[CompileAnswer, Optional[str]], Dict[str, Any]]


def _fresh_status(resolved: Any) -> str:
    """The cache status of work computed for this request."""

    return "miss" if resolved.request.cache == "use" else "bypass"


def _compile_from_cache(resolved: ResolvedCompile, cached: Any) -> Optional[CompileAnswer]:
    if cached is None:
        return None
    return CompileAnswer(
        result=result_payload(resolved, cached),
        pass_seconds=dict(cached.pass_seconds),
        cache_status="hit",
    )


def _lint_from_cache(_resolved: Any, cached: Any) -> Optional[CompileAnswer]:
    return CompileAnswer(result=cached, cache_status="hit") if isinstance(cached, dict) else None


def _lint_message(answer: CompileAnswer, request_id: Optional[str]) -> Dict[str, Any]:
    return lint_result_message(
        request_id, answer.result, cache_status=answer.cache_status, coalesced=answer.coalesced
    )


class CompileServer(Endpoint):
    """A compile-as-a-service endpoint over asyncio streams.

    Construct, then either ``await start()`` + ``await serve_forever()``
    inside an event loop, or use the synchronous embedding helper
    (:class:`repro.service.embedded.EmbeddedServer`) from ordinary code.
    ``port=0`` binds an ephemeral port; :attr:`port` holds the real one
    after :meth:`start`.
    """

    ROLE = "server"
    DRAINING_MESSAGE = "server is draining; try another replica"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Optional[int] = 1,
        cache: CacheSpec = None,
        max_queue: int = DEFAULT_MAX_QUEUE,
        batch_max_requests: int = DEFAULT_BATCH_MAX_REQUESTS,
        batch_window_ms: float = DEFAULT_BATCH_WINDOW_MS,
        peer: Optional[str] = None,
        health_interval: float = DEFAULT_HEALTH_INTERVAL,
        enable_policy: bool = True,
        policy: Optional[PolicyEngine] = None,
    ):
        super().__init__(host, port, health_interval)
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue!r}")
        if batch_max_requests < 1:
            raise ValueError(
                f"batch_max_requests must be >= 1, got {batch_max_requests!r}"
            )
        if batch_window_ms < 0:
            raise ValueError(f"batch_window_ms must be >= 0, got {batch_window_ms!r}")
        self.workers = workers
        self.cache = resolve_cache(cache)
        self.max_queue = max_queue
        self.batch_max_requests = batch_max_requests
        self.batch_window_ms = batch_window_ms
        # Fleet peering: the shared cache tier this shard consults after a
        # local miss and publishes fresh compiles to.  Parsed eagerly (so a
        # bad --peer fails fast) but connected lazily on the event loop.
        self._peer_address = parse_peer_address(peer) if peer else None
        self.peer: Optional[PeerCacheClient] = None
        self.metrics = ServiceMetrics()
        # The rolling-window health layer and the self-protection policy
        # engine.  The monitor is delta-fed from ``self.metrics`` every
        # ``health_interval`` seconds; the engine's decisions are applied
        # on the spot (shedding) and logged as structured JSON records.
        self.health = HealthMonitor(
            counters=tuple(self.metrics.counter_values()),
            gauges=("queue_depth",),
            queue_limit=max_queue,
        )
        self.policy_enabled = enable_policy
        self.policy = policy if policy is not None else default_engine()
        self._shedding = False

        self._queue: "asyncio.Queue[Optional[_PendingEntry]]" = asyncio.Queue()
        # One in-flight map for both request kinds, keyed by coalesce key.
        # Compile and lint cache keys are namespaced apart, so the two
        # kinds never attach to each other's work.
        self._inflight: Dict[str, "asyncio.Future[CompileAnswer]"] = {}
        self._batcher_task: Optional[asyncio.Task] = None
        self._steps = {
            # Compiles pass shedding and the strict-lint gate, then wait in
            # the batch queue for the dispatcher.
            "compile": _KindSteps(
                admit=self._admit_compile,
                from_cache=_compile_from_cache,
                queued=True,
                execute=self._enqueue,
                message=CompileAnswer.to_message,
            ),
            # Lint is pure analysis, answered directly off the event loop.
            "lint": _KindSteps(
                admit=None,
                from_cache=_lint_from_cache,
                queued=False,
                execute=self._run_lint,
                message=_lint_message,
            ),
        }

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the batch dispatcher."""

        await self._open()
        if self._peer_address is not None:
            # Constructed here (not in __init__) so its primitives bind to
            # the server's running event loop on every Python version.
            self.peer = PeerCacheClient(*self._peer_address)
        self._batcher_task = asyncio.ensure_future(self._batcher())

    async def _drain_work(self) -> None:
        # Every admitted request completes: the batcher keeps dispatching
        # until it sees the sentinel, which is queued *behind* all work.
        await self._queue.put(None)
        if self._batcher_task is not None:
            await self._batcher_task
        if self.peer is not None:
            await self.peer.close()

    async def stats_snapshot_async(self) -> Dict[str, Any]:
        """The metrics snapshot a ``stats`` request is answered with.

        The cache disk sweep (a glob plus a ``stat`` per entry) runs in a
        worker thread, so a large store never stalls the event loop.
        """

        if self.peer is not None:
            self.metrics.peer_errors = self.peer.errors
        snapshot = self.metrics.snapshot(queue_depth=self._queue.qsize())
        snapshot["draining"] = self._draining
        snapshot["health"] = self.health.sample()
        snapshot["policy"] = self._policy_payload()
        if self.cache is not None:
            snapshot["cache"] = await asyncio.to_thread(
                cache_stats_payload, self.cache
            )
        if self.peer is not None:
            snapshot["peer"] = self.peer.snapshot()
        return snapshot

    def describe(self) -> Dict[str, Any]:
        """The server-info dict sent in the handshake ``hello``."""

        return {
            "max_queue": self.max_queue,
            "batch_max_requests": self.batch_max_requests,
            "batch_window_ms": self.batch_window_ms,
            "workers": self.workers if self.workers is not None else 0,
            "cache": self.cache is not None,
            "peer": self._peer_address is not None,
            "policy": self.policy_enabled,
        }

    # -- health & policy ----------------------------------------------------------

    def _health_step(self) -> None:
        self.health_tick()

    def health_tick(self, now: Optional[float] = None) -> List[Any]:
        """One health/policy tick; returns the decisions it produced.

        Delta-feeds the cumulative counters into the rolling window,
        samples the current queue depth, steps the policy engine on the
        resulting ``health-sample/v1``, and applies shedding transitions.
        Every decision is logged to stderr as one structured JSON line
        (prefix ``[policy]``), the same payload the replay path produces.
        Public (with an injectable ``now``) so tests drive ticks without
        sleeping.
        """

        self.health.feed_counters(self.metrics.counter_values(), now)
        self.health.observe_gauge("queue_depth", self._queue.qsize(), now)
        sample = self.health.sample(now)
        if not self.policy_enabled:
            return []
        decisions = self.policy.step(sample)
        for decision in decisions:
            if decision.action == "shed_on":
                self._shedding = True
            elif decision.action == "shed_off":
                self._shedding = False
            sys.stderr.write(
                "[policy] " + json.dumps(decision.payload(), sort_keys=True) + "\n"
            )
            sys.stderr.flush()
        return decisions

    @property
    def shedding(self) -> bool:
        """Whether policy-driven admission shedding is currently active."""

        return self._shedding

    def _policy_payload(self) -> Dict[str, Any]:
        """The ``policy`` section of a stats snapshot."""

        return {
            "enabled": self.policy_enabled,
            "shedding": self._shedding,
            "decisions": len(self.policy.log),
            "recent": [decision.payload() for decision in self.policy.log[-5:]],
        }

    # -- the request pipeline -----------------------------------------------------

    async def _respond(
        self,
        kind: str,
        message: Dict[str, Any],
        request: Any,
        resolved: Any,
        arrived: float,
    ) -> Dict[str, Any]:
        """Answer one resolved request; the endpoint core did parse → drain check.

        admission → cache front → peer front → coalesce, or execute and
        publish → answer.  Compile and lint requests differ only in their
        :class:`_KindSteps`.
        """

        steps = self._steps[kind]
        if steps.admit is not None:
            rejection = await steps.admit(resolved)
            if rejection is not None:
                return rejection
        answer = await self._cached_answer(steps, resolved)
        if answer is None:
            key = resolved.coalesce_key
            future = self._inflight.get(key)
            coalesced = future is not None
            if future is None:
                if steps.queued and self._queue.qsize() >= self.max_queue:
                    self.metrics.rejected_overloaded += 1
                    return error_message(
                        "overloaded",
                        f"admission queue is full ({self.max_queue} entries); "
                        "retry with backoff",
                        request.id,
                    )
                future = asyncio.get_running_loop().create_future()
                self._inflight[key] = future
                await steps.execute(resolved, future, arrived)
            try:
                answer = await future
            except Exception as exc:
                return error_message("internal", f"{kind} failed: {exc}", request.id)
            if coalesced:
                # Identical in-flight work: attached, computed nothing.
                answer = dataclasses.replace(answer, coalesced=True)
                self.metrics.coalesced += 1
        return steps.message(answer, request.id)

    async def _admit_compile(self, resolved: ResolvedCompile) -> Optional[Dict[str, Any]]:
        """Compile-only admission: policy shedding, then the strict-lint gate."""

        # Policy-driven load shedding: below the queue-full bound, the
        # shed-load rule can reject at admission while the windowed
        # queue-depth peak stays above its threshold.  The rejection
        # reuses the ``overloaded`` error code, so clients back off and
        # retry exactly as for a full queue.
        if self._shedding:
            self.metrics.rejected_shed += 1
            self.metrics.rejected_overloaded += 1
            return error_message(
                "overloaded",
                "admission shedding is active (queue pressure); retry with backoff",
                resolved.request.id,
            )
        # Strict-lint gate: reject IR with error-severity diagnostics before
        # it consumes a cache lookup, a queue slot or a compile.  The
        # rejection payload is the same structured report the pipeline's
        # LintError and the CLI's --json mode carry.
        if resolved.request.lint == "strict":
            rejection = await asyncio.to_thread(compile_lint_rejection, resolved)
            if rejection is not None:
                return error_message(
                    "lint_rejected",
                    "lint found error-severity diagnostics",
                    resolved.request.id,
                    diagnostics=rejection,
                )
        return None

    async def _cached_answer(
        self, steps: _KindSteps, resolved: Any
    ) -> Optional[CompileAnswer]:
        """The cache front, then the shared-tier front; None if both miss."""

        if resolved.request.cache != "use":
            return None
        # Admitted-but-already-computed work is answered without a queue
        # slot or a batch.  The lookup (a pickle read on a miss-from-memory)
        # runs off the loop; the store is thread-safe.
        if self.cache is not None:
            cached = await asyncio.to_thread(self.cache.get, resolved.cache_key)
            answer = steps.from_cache(resolved, cached)
            if answer is not None:
                self.metrics.cache_hits += 1
                return answer
        # Another shard may already have computed this key.  A peer failure
        # is just a miss (the client never raises), so this adds no
        # correctness dependency.
        if self.peer is not None:
            entry = await self.peer.get(resolved.cache_key)
            if entry is not None:
                self.metrics.peer_hits += 1
                return CompileAnswer(
                    result=dict(entry["result"]),
                    pass_seconds=dict(entry["pass_seconds"]),
                    cache_status="peer",
                )
        return None

    async def _enqueue(
        self, resolved: ResolvedCompile, future: "asyncio.Future[CompileAnswer]", arrived: float
    ) -> None:
        """Compile executor: queue the entry for the batch dispatcher."""

        self._queue.put_nowait(
            _PendingEntry(resolved=resolved, future=future, enqueued_at=arrived)
        )
        self.metrics.observe_queue_depth(self._queue.qsize())

    async def _run_lint(
        self, resolved: Any, future: "asyncio.Future[CompileAnswer]", _arrived: float
    ) -> None:
        """Lint executor: analyse off the loop, store the report, settle."""

        try:
            payload = await asyncio.to_thread(run_lint_request, resolved)
            if resolved.request.cache == "use" and self.cache is not None:
                await asyncio.to_thread(self.cache.put, resolved.cache_key, payload)
        except Exception as exc:
            outcome = (RuntimeError(f"{type(exc).__name__}: {exc}"), None)
        else:
            outcome = (None, CompileAnswer(result=payload, cache_status=_fresh_status(resolved)))
        await self._settle([(resolved, future, *outcome)])

    async def _settle(self, completions: List[Tuple[Any, Any, Any, Any]]) -> None:
        """Publish fresh answers to the fleet tier, then resolve their waiters.

        ``completions`` holds ``(resolved, future, error, answer)`` tuples.
        Publishing BEFORE resolving any future is what makes the fleet-wide
        single-compile guarantee airtight: once a client (or the router)
        sees an answer, the tier already holds it, so a duplicate arriving
        after the entry leaves the in-flight map can never slip between
        "no longer coalescible" and "not yet in the tier" and recompute.
        Entries stay in ``_inflight`` meanwhile, so duplicates arriving
        *during* the put still coalesce.
        """

        if self.peer is not None:
            puts = [
                self.peer.put(
                    resolved.cache_key,
                    {"result": dict(answer.result), "pass_seconds": dict(answer.pass_seconds)},
                )
                for resolved, _future, _error, answer in completions
                if answer is not None and resolved.request.cache == "use"
            ]
            if puts:
                self.metrics.peer_puts += len(puts)
                await asyncio.gather(*puts)
        for resolved, future, error, answer in completions:
            self._inflight.pop(resolved.coalesce_key, None)
            if future.done():  # pragma: no cover - defensive
                continue
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(answer)

    # -- the batch dispatcher -----------------------------------------------------

    async def _batcher(self) -> None:
        """Collect entries into micro-batches and dispatch them, forever.

        One batch at a time: while a batch compiles (off the event loop, in
        a worker thread; ``compile_many`` may shard it further over the
        process pool), new arrivals accumulate in the queue for the next
        one.  Exits on the ``None`` sentinel :meth:`drain` enqueues after
        the last admitted entry.
        """

        while True:
            first = await self._queue.get()
            if first is None:
                return
            batch = [first]
            deadline = time.monotonic() + self.batch_window_ms / 1000.0
            sentinel_seen = False
            while len(batch) < self.batch_max_requests:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    entry = await asyncio.wait_for(self._queue.get(), timeout=remaining)
                except asyncio.TimeoutError:
                    break
                if entry is None:
                    sentinel_seen = True
                    break
                batch.append(entry)
            await self._dispatch(batch)
            if sentinel_seen:
                return

    async def _dispatch(self, batch: List[_PendingEntry]) -> None:
        """Compile one batch off the event loop and fan results out.

        Every entry's future is *guaranteed* to resolve — per-entry
        payload bugs become that entry's exception, and a failure of the
        dispatch itself fails the whole batch — so a bug can strand
        neither a client nor the batcher loop (see :meth:`_batcher`).
        """

        dispatch_start = time.monotonic()
        self.metrics.record_batch(len(batch))
        for entry in batch:
            self.metrics.queue_ms.record((dispatch_start - entry.enqueued_at) * 1000.0)

        try:
            # Group by compile options: one compile_many call per distinct
            # (target, cost model, techniques, cache policy) combination.
            groups: Dict[Tuple, List[_PendingEntry]] = {}
            for entry in batch:
                groups.setdefault(entry.resolved.options_key, []).append(entry)
            grouped = list(groups.items())

            outcomes = await asyncio.to_thread(self._compile_groups, grouped)

            compile_ms = (time.monotonic() - dispatch_start) * 1000.0
            completions = []
            for (options, entries), outcome in zip(grouped, outcomes):
                kind, value = outcome
                for position, entry in enumerate(entries):
                    self.metrics.compile_ms.record(compile_ms)
                    if kind == "error":
                        error, answer = RuntimeError(str(value)), None
                    else:
                        try:
                            compiled = value[position]
                            error, answer = None, CompileAnswer(
                                result=result_payload(entry.resolved, compiled),
                                pass_seconds=dict(compiled.pass_seconds),
                                cache_status=_fresh_status(entry.resolved),
                                batch_size=len(batch),
                                queue_ms=(dispatch_start - entry.enqueued_at) * 1000.0,
                                compile_ms=compile_ms,
                            )
                        except Exception as exc:
                            error = RuntimeError(f"result fan-out failed: {exc}")
                            answer = None
                    completions.append((entry.resolved, entry.future, error, answer))
            await self._settle(completions)
            self.metrics.compiled += sum(answer is not None for *_rest, answer in completions)
        except Exception as exc:
            # Never let a dispatch bug strand the batch (or, worse, kill
            # the batcher): fail every unresolved future.
            for entry in batch:
                self._inflight.pop(entry.resolved.coalesce_key, None)
                if not entry.future.done():
                    entry.future.set_exception(
                        RuntimeError(f"batch dispatch failed: {exc}")
                    )

    def _compile_groups(self, grouped) -> List[Tuple[str, Any]]:
        """Worker-thread body: run ``compile_many`` for every option group.

        Returns one ``("ok", [CompiledProcedure, ...])`` or
        ``("error", message)`` outcome per group — a failing group turns
        into per-request ``internal`` errors without taking down its batch
        siblings or the server.
        """

        from repro.pipeline.compiler import compile_many

        outcomes: List[Tuple[str, Any]] = []
        for (target, cost_model, techniques, policy), entries in grouped:
            procedures = [
                (entry.resolved.function, entry.resolved.profile) for entry in entries
            ]
            try:
                compiled = compile_many(
                    procedures,
                    machine=target,
                    cost_model=cost_model,
                    techniques=list(techniques),
                    maximal_regions=True,
                    workers=self.workers,
                    cache=self.cache if policy == "use" else None,
                )
            except Exception as exc:
                outcomes.append(("error", f"{type(exc).__name__}: {exc}"))
            else:
                outcomes.append(("ok", compiled))
        return outcomes


async def run_server(
    host: str = "127.0.0.1",
    port: int = 0,
    workers: Optional[int] = 1,
    cache: CacheSpec = None,
    max_queue: int = DEFAULT_MAX_QUEUE,
    batch_max_requests: int = DEFAULT_BATCH_MAX_REQUESTS,
    batch_window_ms: float = DEFAULT_BATCH_WINDOW_MS,
    peer: Optional[str] = None,
    health_interval: float = DEFAULT_HEALTH_INTERVAL,
    enable_policy: bool = True,
    ready_callback=None,
) -> None:
    """Start a :class:`CompileServer` and run it until it drains.

    The coroutine the CLI ``serve`` subcommand drives.  ``ready_callback``
    (if given) is called with the server once it is listening — used to
    print the bound port and by the embedding helper.
    """

    server = CompileServer(
        host=host,
        port=port,
        workers=workers,
        cache=cache,
        max_queue=max_queue,
        batch_max_requests=batch_max_requests,
        batch_window_ms=batch_window_ms,
        peer=peer,
        health_interval=health_interval,
        enable_policy=enable_policy,
    )
    await server.start()
    server.install_signal_handlers()
    if ready_callback is not None:
        ready_callback(server)
    await server.serve_forever()
