"""The serving core shared by the compile server and the fleet router.

:class:`~repro.service.server.CompileServer` and
:class:`~repro.service.fleet.FleetRouter` both speak the JSON-lines protocol
of :mod:`repro.service.protocol` to clients.  :class:`Endpoint` holds
everything they do the same way:

* the connection loop: frame reading (an oversize or undecodable frame is
  answered, never fatal to the process), the ``hello`` handshake, the
  ``stats``/``metrics``/``shutdown`` requests and the unknown-type error;
* the envelope of every ``compile`` and ``lint`` request: parse, resolve,
  refuse while draining, then account the answer (completed plus latency,
  or an error) and send it;
* the bounded, locked send;
* the lifecycle: the connection registry, active-request accounting, the
  health loop, graceful drain and signal handling.

A role supplies the rest: its ``hello`` payload (:meth:`Endpoint.describe`),
its stats snapshot, how a request is resolved (:meth:`Endpoint._resolve`)
and answered (:meth:`Endpoint._respond`), its health tick and the
role-specific part of a drain.  Its words for itself (:attr:`Endpoint.ROLE`,
:attr:`Endpoint.DRAINING_MESSAGE`) are the only per-role text on the wire.

:class:`BackgroundEndpoint` serves an endpoint on a thread of its own, for
the synchronous code that owns one: the in-process server and the fleet
supervisor.

:class:`Link` is the client side: one pipelined connection whose replies are
matched to requests by id.  The router's link to each shard, a shard's link
to the shared cache tier and the public
:class:`~repro.service.client.AsyncServiceClient` are all links.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.service.health import METRICS_TEXT_SCHEMA, render_metrics_text
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    error_message,
    hello_message,
    parse_compile_request,
    parse_hello,
    parse_lint_request,
    resolve_compile_request,
    resolve_lint_request,
)

#: Bound on one response write.  A client that stops reading fills its
#: transport buffer and would otherwise block ``writer.drain()`` forever —
#: keeping its requests "active" and wedging a graceful drain.  Past this
#: deadline the connection is closed instead.
SEND_TIMEOUT_SECONDS = 30.0

#: The request kinds every endpoint serves: ``type`` → (parser, resolver).
REQUEST_KINDS = {
    "compile": (parse_compile_request, resolve_compile_request),
    "lint": (parse_lint_request, resolve_lint_request),
}

#: Requests about the endpoint itself, answered inline on the connection.
ADMIN_KINDS = ("stats", "metrics", "shutdown")

#: Stream limit for every connection: one maximal frame plus slack.
STREAM_LIMIT = MAX_FRAME_BYTES + 1024


def _check_admin_fields(message: Dict[str, Any], kind: str) -> None:
    """Strictly validate a ``stats``/``metrics``/``shutdown`` message (``id`` only)."""

    unknown = sorted(set(message) - {"type", "id"})
    if unknown:
        raise ProtocolError(
            f"{kind} request has unknown field(s): {', '.join(unknown)}"
        )
    request_id = message.get("id")
    if request_id is not None and not isinstance(request_id, str):
        raise ProtocolError(f"{kind} request 'id' must be a string")


def _string_id(message: Dict[str, Any]) -> Optional[str]:
    """The message's ``id`` if it is a string (the only kind echoed back)."""

    request_id = message.get("id")
    return request_id if isinstance(request_id, str) else None


async def cancel_task(task: Optional[asyncio.Task]) -> None:
    """Cancel a background task and wait until it has stopped."""

    if task is None:
        return
    task.cancel()
    try:
        await task
    except asyncio.CancelledError:
        pass


@dataclass(eq=False)
class Connection:
    """Per-connection state: the writer, its lock, and handshake status."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    greeted: bool = False


class Endpoint:
    """A JSON-lines protocol endpoint; subclassed by each serving role.

    Subclasses set ``metrics`` (with the request counters of
    :class:`~repro.service.metrics.ServiceMetrics`: ``received``,
    ``completed``, ``errors``, ``protocol_errors``,
    ``rejected_shutting_down`` and ``latency_ms``) and ``health`` (a
    :class:`~repro.service.health.HealthMonitor`), and implement the
    hooks named in the module docstring.
    """

    #: How the endpoint names itself in the version-mismatch error.
    ROLE: str

    #: The ``shutting_down`` error text for requests that arrive mid-drain.
    DRAINING_MESSAGE: str

    def __init__(self, host: str, port: int, health_interval: float):
        if health_interval <= 0:
            raise ValueError(f"health_interval must be > 0, got {health_interval!r}")
        self.host = host
        self.port = port
        self.health_interval = health_interval
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        self._health_task: Optional[asyncio.Task] = None
        self._draining = False
        self._active_requests = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._closed = asyncio.Event()

    # -- the role's hooks ---------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """The info dict sent in the handshake ``hello``."""

        raise NotImplementedError

    async def stats_snapshot_async(self) -> Dict[str, Any]:
        """The snapshot ``stats`` and ``metrics`` requests are answered with."""

        raise NotImplementedError

    async def _resolve(self, request: Any, resolver: Callable[[Any], Any]) -> Any:
        """Resolve a parsed request.  Resolution can be real work (IR
        parsing and verification, scenario generation, fingerprinting), so
        it runs off the event loop and big requests do not stall others."""

        return await asyncio.to_thread(resolver, request)

    async def _respond(
        self,
        kind: str,
        message: Dict[str, Any],
        request: Any,
        resolved: Any,
        arrived: float,
    ) -> Dict[str, Any]:
        """Answer one admitted request; returns the ``result`` or ``error``."""

        raise NotImplementedError

    def _health_step(self) -> None:
        """One tick of the health loop."""

        raise NotImplementedError

    async def _drain_work(self) -> None:
        """Finish the role's own work during a drain, once no request is active."""

        raise NotImplementedError

    # -- lifecycle ----------------------------------------------------------------

    async def _open(self) -> None:
        """Bind the client listener and start the health loop."""

        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=STREAM_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._health_task = asyncio.ensure_future(self._health_loop())

    async def _health_loop(self) -> None:
        """Run :meth:`_health_step` every ``health_interval`` until the drain."""

        while not self._draining:
            await asyncio.sleep(self.health_interval)
            if self._draining:
                return
            self._health_step()

    async def serve_forever(self) -> None:
        """Block until the endpoint has fully drained and closed."""

        await self._closed.wait()

    def install_signal_handlers(self) -> None:
        """Drain gracefully on SIGTERM/SIGINT (POSIX event loops only)."""

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    def request_drain(self) -> None:
        """Schedule a graceful drain from synchronous context (signal-safe)."""

        asyncio.ensure_future(self.drain())

    async def drain(self) -> None:
        """Stop admitting, finish all in-flight work, close everything.

        Idempotent: concurrent callers all wait for the same shutdown to
        complete.
        """

        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        if self._server is not None:
            # Stop accepting.  ``wait_closed`` is deliberately NOT awaited
            # here: on Python >= 3.12 it blocks until every accepted
            # connection has finished, so awaiting it before we close the
            # client connections below would deadlock against any idle
            # client that simply stays connected.
            self._server.close()
        await self._idle.wait()
        await self._drain_work()
        await cancel_task(self._health_task)
        for connection in list(self._connections):
            try:
                connection.writer.close()
            except Exception:  # pragma: no cover - best-effort close
                pass
        if self._server is not None:
            try:
                # All transports are closed now, so this resolves promptly;
                # the timeout is a belt against handler stragglers.
                await asyncio.wait_for(self._server.wait_closed(), timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                pass
        self._closed.set()

    @property
    def draining(self) -> bool:
        """Whether the endpoint has begun a graceful drain."""

        return self._draining

    # -- request bookkeeping ------------------------------------------------------

    def _request_started(self) -> None:
        self._active_requests += 1
        self._idle.clear()

    def _request_finished(self) -> None:
        self._active_requests -= 1
        if self._active_requests == 0:
            self._idle.set()

    def _complete(self, arrived: float) -> None:
        """Account a successfully answered request."""

        self.metrics.completed += 1
        latency_ms = (time.monotonic() - arrived) * 1000.0
        self.metrics.latency_ms.record(latency_ms)
        self.health.observe_latency(latency_ms)

    # -- the connection handler ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = Connection(reader=reader, writer=writer)
        self._connections.add(connection)
        # Completed tasks discard themselves: a long-lived connection must
        # not accumulate one Task object per request it ever served.
        tasks: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ConnectionResetError:
                    break
                except (ValueError, asyncio.IncompleteReadError):
                    # ``readline`` reports an over-limit line as ValueError
                    # (it wraps LimitOverrunError).  The stream cannot be
                    # re-synchronized after that, so report and drop the
                    # connection.
                    await self._reject(
                        connection,
                        "protocol",
                        f"frame exceeds {MAX_FRAME_BYTES} bytes or the "
                        "stream is malformed; closing",
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = decode_message(line)
                except ProtocolError as exc:
                    await self._reject(connection, "bad_request", str(exc))
                    continue
                if not connection.greeted:
                    if not await self._handshake(connection, message):
                        break
                    continue
                kind = message.get("type")
                if kind in REQUEST_KINDS:
                    # Handled concurrently so one long request does not
                    # stall pipelined requests on the same connection.
                    task = asyncio.ensure_future(
                        self._handle_request(connection, message, kind)
                    )
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                elif kind in ADMIN_KINDS:
                    await self._handle_admin(connection, message, kind)
                else:
                    await self._reject(
                        connection,
                        "bad_request",
                        f"unknown message type {kind!r}",
                        _string_id(message),
                    )
        except ConnectionResetError:  # pragma: no cover - peer vanished
            pass
        finally:
            if tasks:
                await asyncio.gather(*list(tasks), return_exceptions=True)
            self._connections.discard(connection)
            try:
                writer.close()
            except Exception:  # pragma: no cover - best-effort close
                pass

    async def _handshake(self, connection: Connection, message: Dict[str, Any]) -> bool:
        """Process the first client message; returns False to drop the link."""

        try:
            if message.get("type") != "hello":
                raise ProtocolError(
                    "first message must be a 'hello' handshake", code="protocol"
                )
            version = parse_hello(message)
        except ProtocolError as exc:
            await self._reject(connection, "protocol", str(exc))
            return False
        if version != PROTOCOL_VERSION:
            await self._reject(
                connection,
                "protocol",
                f"protocol version mismatch: client speaks {version}, "
                f"{self.ROLE} speaks {PROTOCOL_VERSION}",
            )
            return False
        connection.greeted = True
        await self._send(connection, hello_message(server_info=self.describe()))
        return True

    async def _handle_admin(
        self, connection: Connection, message: Dict[str, Any], kind: str
    ) -> None:
        """Answer a ``stats``, ``metrics`` or ``shutdown`` request."""

        try:
            _check_admin_fields(message, kind)
        except ProtocolError as exc:
            await self._reject(connection, "bad_request", str(exc), message.get("id"))
            return
        if kind == "shutdown":
            await self._send(connection, {"type": "ok", "id": message.get("id")})
            self.request_drain()
            return
        snapshot = await self.stats_snapshot_async()
        if kind == "stats":
            reply = {"type": "stats", "id": message.get("id"), "stats": snapshot}
        else:
            reply = {
                "type": "metrics",
                "id": message.get("id"),
                "schema": METRICS_TEXT_SCHEMA,
                "text": render_metrics_text(snapshot),
            }
        await self._send(connection, reply)

    async def _handle_request(
        self, connection: Connection, message: Dict[str, Any], kind: str
    ) -> None:
        """The envelope of one compile or lint request, around :meth:`_respond`."""

        parser, resolver = REQUEST_KINDS[kind]
        self.metrics.received += 1
        self._request_started()
        arrived = time.monotonic()
        request_id = _string_id(message)
        try:
            try:
                request = parser(message)
                request_id = request.id
                resolved = await self._resolve(request, resolver)
            except ProtocolError as exc:
                self.metrics.protocol_errors += 1
                reply = error_message(exc.code, str(exc), request_id)
            except Exception as exc:
                # A resolution bug must answer the request, not strand the
                # client until its timeout.
                reply = error_message(
                    "internal",
                    f"request resolution failed: {type(exc).__name__}: {exc}",
                    request_id,
                )
            else:
                if self._draining:
                    self.metrics.rejected_shutting_down += 1
                    reply = error_message(
                        "shutting_down", self.DRAINING_MESSAGE, request_id
                    )
                else:
                    reply = await self._respond(kind, message, request, resolved, arrived)
            if reply.get("type") == "result":
                self._complete(arrived)
            else:
                self.metrics.errors += 1
            await self._send(connection, reply)
        finally:
            self._request_finished()

    async def _reject(
        self,
        connection: Connection,
        code: str,
        text: str,
        request_id: Optional[str] = None,
    ) -> None:
        """Count a protocol violation and answer it with an ``error``."""

        self.metrics.protocol_errors += 1
        self.metrics.errors += 1
        await self._send(connection, error_message(code, text, request_id))

    async def _send(self, connection: Connection, message: Dict[str, Any]) -> None:
        """Serialize and write one message under the connection's lock.

        Bounded: a peer that stops reading cannot block the endpoint —
        after :data:`SEND_TIMEOUT_SECONDS` the connection is closed and the
        write abandoned (the request still counts as finished, so a stuck
        client can never wedge a graceful drain).
        """

        payload = encode_message(message)
        async with connection.write_lock:
            try:
                connection.writer.write(payload)
                await asyncio.wait_for(
                    connection.writer.drain(), timeout=SEND_TIMEOUT_SECONDS
                )
            except asyncio.TimeoutError:
                try:
                    connection.writer.close()
                except Exception:  # pragma: no cover - best-effort close
                    pass
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass


class BackgroundEndpoint:
    """An :class:`Endpoint` served on its own thread and event loop.

    The synchronous owners of an endpoint — the in-process server
    (:class:`~repro.service.embedded.EmbeddedServer`) and the fleet
    supervisor (:class:`~repro.service.fleet.Fleet`) — subclass this and
    build their endpoint in :meth:`_build_endpoint`.  Entering the context
    starts the thread and blocks until the endpoint listens (or re-raises
    why it could not); :meth:`call` runs a coroutine on the endpoint's loop
    from any other thread; :meth:`stop` drains the endpoint through the
    same graceful path a SIGTERM takes, then joins the thread.
    """

    #: How errors name the endpoint.
    NAME: str

    #: The name of the endpoint's thread.
    THREAD_NAME: str

    def __init__(self, startup_timeout: float):
        #: The live endpoint, once started.
        self.endpoint: Optional[Endpoint] = None
        #: The endpoint's bound client port, once started.
        self.port: Optional[int] = None
        self._startup_timeout = startup_timeout
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None

    def _build_endpoint(self) -> Endpoint:
        """Construct the endpoint (on its loop); ``start()`` binds it."""

        raise NotImplementedError

    def __enter__(self):
        self._thread = threading.Thread(
            target=self._run, name=self.THREAD_NAME, daemon=True
        )
        self._thread.start()
        if not self._ready.wait(self._startup_timeout):
            raise RuntimeError(f"{self.NAME} did not start in time")
        if self._failure is not None:
            raise RuntimeError(
                f"{self.NAME} failed to start: {self._failure}"
            ) from self._failure
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - surfaced via _failure
            self._failure = exc
            self._ready.set()

    async def _main(self) -> None:
        try:
            endpoint = self._build_endpoint()
            await endpoint.start()
        except BaseException as exc:
            self._failure = exc
            self._ready.set()
            return
        self.endpoint = endpoint
        self.port = endpoint.port
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await endpoint.serve_forever()

    def call(self, coroutine, timeout: float = 60.0):
        """Run ``coroutine`` on the endpoint's loop; return its result."""

        if self._loop is None:
            coroutine.close()
            raise RuntimeError(f"{self.NAME} is not running")
        try:
            future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        except RuntimeError:
            # The loop has closed: the coroutine never started, so close
            # the orphan.  Never close a *scheduled* coroutine — it
            # belongs to the loop.
            coroutine.close()
            raise
        return future.result(timeout)

    def stats(self) -> Dict[str, Any]:
        """The endpoint's stats snapshot, fetched thread-safely."""

        if self.endpoint is None:
            raise RuntimeError(f"{self.NAME} is not running")
        return self.call(self.endpoint.stats_snapshot_async())

    def stop(self, timeout: float = 60.0) -> None:
        """Drain the endpoint gracefully and join its thread.

        A drain that already happened (a client-driven ``shutdown``) or
        that fails is not an error here: stopping is best-effort.
        """

        if self.endpoint is not None:
            try:
                self.call(self.endpoint.drain(), timeout)
            except Exception:  # pragma: no cover - closed loop, slow drain
                pass
        if self._thread is not None:
            self._thread.join(timeout)


class Link:
    """One pipelined JSON-lines connection, its replies matched by id.

    Each request goes out under a fresh link-assigned id (``<prefix>1``,
    ``<prefix>2``, ...), so concurrent requests share the connection and a
    reply resolves exactly the request whose id it carries.  A subclass
    decides what a lost connection means (:meth:`_connection_lost`); the
    requests still pending then fail with the error given to
    :meth:`_teardown`.
    """

    def __init__(self, host: str, port: int, id_prefix: str):
        self.host = host
        self.port = port
        #: Undecodable or over-limit frames received (subclasses add their
        #: own failures).
        self.errors = 0
        self._id_prefix = id_prefix
        self._counter = 0
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._write_lock = asyncio.Lock()

    @property
    def connected(self) -> bool:
        """Whether the connection is open."""

        return self._writer is not None

    @property
    def pending_count(self) -> int:
        """Requests currently awaiting a reply."""

        return len(self._pending)

    def _next_id(self) -> str:
        self._counter += 1
        return f"{self._id_prefix}{self._counter}"

    async def _connect(
        self,
        hello: Dict[str, Any],
        accept: Callable[[Dict[str, Any]], None],
        timeout: float,
    ) -> None:
        """Open the connection, send ``hello`` and start the read loop.

        ``accept`` checks the reply to ``hello`` and raises to refuse it;
        a peer that hangs up instead of replying raises
        :class:`ConnectionError`.  On any failure the socket is closed and
        the error propagates.
        """

        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(  # hotpath: ok
                self.host, self.port, limit=STREAM_LIMIT
            ),
            timeout=timeout,
        )
        try:
            writer.write(encode_message(hello))
            await asyncio.wait_for(writer.drain(), timeout=timeout)
            reply = await asyncio.wait_for(reader.readline(), timeout=timeout)
            if not reply:
                raise ConnectionError("connection closed during the handshake")
            accept(decode_message(reply))
        except BaseException:
            writer.close()
            raise
        self._writer = writer
        self._reader_task = asyncio.ensure_future(self._read_loop(reader))

    async def _exchange(
        self,
        message: Dict[str, Any],
        send_timeout: Optional[float],
        reply_timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Send ``message`` (its ``id`` unique among pending requests), await its reply.

        Raises :class:`ConnectionError` if the link is down, whatever the
        write raises, :class:`asyncio.TimeoutError` past ``reply_timeout``,
        or the teardown error if the link goes down first.
        """

        if self._writer is None:
            raise ConnectionError("link not connected")
        request_id = message["id"]
        future: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[request_id] = future
        try:
            async with self._write_lock:
                # The link may have gone down while this waited for the lock.
                if self._writer is None:
                    raise ConnectionError("link not connected")
                self._writer.write(encode_message(message))
                await asyncio.wait_for(self._writer.drain(), timeout=send_timeout)
            return await asyncio.wait_for(future, timeout=reply_timeout)
        finally:
            self._pending.pop(request_id, None)

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        while True:
            try:
                line = await reader.readline()
            except ConnectionResetError:
                break
            except ValueError:
                # An over-limit frame: the stream cannot be re-synchronized.
                self.errors += 1
                break
            if not line:
                break
            if not line.strip():
                continue
            try:
                message = decode_message(line)
            except ProtocolError:
                self.errors += 1
                continue
            self._received(message)
        self._connection_lost()

    def _received(self, message: Dict[str, Any]) -> bool:
        """Resolve the request ``message`` answers; False if none waits for it."""

        future = self._pending.pop(message.get("id"), None)
        if future is None or future.done():
            return False
        future.set_result(message)
        return True

    def _connection_lost(self) -> None:
        """The other side closed or reset the connection."""

        raise NotImplementedError

    def _teardown(self, error: BaseException) -> None:
        """Close the connection and fail every pending request with ``error``."""

        task, self._reader_task = self._reader_task, None
        if task is not None and task is not asyncio.current_task():
            task.cancel()
        writer, self._writer = self._writer, None
        if writer is not None:
            try:
                writer.close()
            except Exception:  # pragma: no cover - best-effort close
                pass
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    async def _close(self, error: BaseException) -> None:
        """:meth:`_teardown`, then wait until the read loop has stopped."""

        reader_task = self._reader_task
        self._teardown(error)
        if reader_task is not None:
            await asyncio.gather(reader_task, return_exceptions=True)
