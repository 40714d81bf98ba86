"""The service layer of a traced run: a workload's procedures through ``serve`` and ``fleet``.

``repro-spill serve --workers 1`` and ``repro-spill fleet --shards 2`` (one
shard per core) each run as a child process with a fresh cache directory.
This process is the only load source: one asyncio loop, two pipelined
connections.  Every procedure is sent as an inline-IR request with its
branch profile, all due at t=0:

* to the server, twice: the first round carries each program twice, so the
  second copy coalesces with the first while it is in flight; the second
  round is answered by the admission-time cache front;
* to the fleet, twice: its router answers the second round from the shared
  tier.

Every request is timed from its due time; how late the generator sent it is
reported separately.  ``overloaded`` answers, timeouts and protocol errors
are failures; nothing is retried.  After the rounds every ``result`` is
byte-compared with a local compile of the same request.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from common import ROOT, BenchError, percentile, program_env, report

#: Seconds a request may take before it counts as failed.
REQUEST_TIMEOUT_S = 30.0
#: Shards of the fleet: one per core of the two-core reference machine.
FLEET_SHARDS = 2
#: Connections the load generator opens per round.
CONNECTIONS = 2

REFUSED = ("overloaded", "shutting_down")

#: Service metrics that must be non-zero: each is a path of the service
#: (batcher, coalescing, cache front, shared tier) that a renamed field or a
#: bypassed path would silently drop.  ``service.rejected`` is 0 on a healthy
#: run (a refusal is a failed request).
MUST_FIRE = (
    "service.queue_ms.p50", "service.compile_ms.p50", "service.batch_size_mean",
    "service.coalesce_frac", "service.cache_hit_frac", "service.tier_hit_frac",
)


def compile_message(request_id: str, program: Dict) -> Dict:
    return {"type": "compile", "id": request_id, "program": program}


def inline_message(request_id: str, procedure) -> Dict:
    """A generated procedure as an inline-IR request with its branch profile."""

    from repro.ir.printer import print_function

    message = compile_message(request_id, {"ir": print_function(procedure.function)})
    message["profile"] = {
        "invocations": procedure.config.invocations,
        "probabilities": {f"{s}->{d}": p for (s, d), p in procedure.branch_probabilities.items()},
    }
    return message


# ---------------------------------------------------------------------------
# The child process: server or fleet.
# ---------------------------------------------------------------------------


class Child:
    """``repro-spill serve`` or ``repro-spill fleet`` as a child process."""

    def __init__(self, kind: str, cache_dir) -> None:
        self.kind = kind
        if kind == "serve":
            args = ["serve", "--port", "0", "--workers", "1", "--cache-dir", str(cache_dir)]
        else:
            args = ["fleet", "--shards", str(FLEET_SHARDS), "--port", "0", "--peer-port", "0",
                    "--workers", "1", "--cache-root", str(cache_dir)]
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *args, "--host", "127.0.0.1"],
            cwd=str(ROOT), env=program_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.port = self._wait_for_port()

    def _drain(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _wait_for_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        pattern = re.compile(rf"repro-spill {self.kind}: listening on [^:]+:(\d+)")
        while time.monotonic() < deadline:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                break
            if line is None:
                break
            match = pattern.search(line)
            if match:
                return int(match.group(1))
        self.stop()
        raise BenchError(f"repro-spill {self.kind} did not start")

    def tree(self) -> List[int]:
        """The child and its descendants (Linux ``/proc`` task children lists)."""

        pids, frontier = [], [self.process.pid]
        while frontier:
            pid = frontier.pop()
            pids.append(pid)
            try:
                tasks = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for task in tasks:
                try:
                    with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                        frontier.extend(int(child) for child in handle.read().split())
                except OSError:
                    continue
        return pids

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                for pid in reversed(self.tree()):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                self.process.wait()
        self._reader.join(timeout=10)


# ---------------------------------------------------------------------------
# The open-loop load generator.
# ---------------------------------------------------------------------------


class Record:
    __slots__ = ("message", "due", "sent", "received", "response")

    def __init__(self, message: Dict, due: float):
        self.message = message
        self.due = due
        self.sent: Optional[float] = None
        self.received: Optional[float] = None
        self.response: Optional[Dict] = None


class LegResult:
    def __init__(self, records: List[Record], start: float, protocol_errors: int):
        self.records = records
        self.start = start
        self.protocol_errors = protocol_errors

    def lateness_ms(self) -> List[float]:
        return [(r.sent - (self.start + r.due)) * 1000.0 for r in self.records if r.sent is not None]


async def _open(port: int, on_message) -> Tuple[asyncio.StreamWriter, asyncio.Task]:
    from repro.service.protocol import MAX_FRAME_BYTES, decode_message, encode_message, hello_message

    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=MAX_FRAME_BYTES + 1)
    writer.write(encode_message(hello_message()))
    await writer.drain()
    hello = decode_message(await reader.readline())
    if hello.get("type") != "hello":
        raise BenchError(f"handshake refused: {hello}")

    async def read() -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            try:
                message = decode_message(line)
            except ValueError:
                message = None
            on_message(message, now)

    return writer, asyncio.create_task(read())


async def _run_leg(port: int, messages: Sequence[Dict], dues: Sequence[float]) -> LegResult:
    from repro.service.protocol import encode_message

    records = {m["id"]: Record(m, due) for m, due in zip(messages, dues)}
    pending = {"count": len(records), "protocol_errors": 0}
    done = asyncio.Event()

    def on_message(message, now: float) -> None:
        record = records.get(message.get("id")) if isinstance(message, dict) else None
        if record is None or record.received is not None:
            pending["protocol_errors"] += 1
            return
        record.received = now
        record.response = message
        pending["count"] -= 1
        if pending["count"] == 0:
            done.set()

    connections = [await _open(port, on_message) for _ in range(CONNECTIONS)]
    start = time.perf_counter() + 0.02
    for index, message in enumerate(messages):
        record = records[message["id"]]
        delay = start + record.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        writer = connections[index % CONNECTIONS][0]
        record.sent = time.perf_counter()
        writer.write(encode_message(message))
        await writer.drain()
    deadline = start + max(dues) + REQUEST_TIMEOUT_S
    try:
        await asyncio.wait_for(done.wait(), timeout=max(0.0, deadline - time.perf_counter()))
    except asyncio.TimeoutError:
        pass
    for writer, task in connections:
        writer.close()
        task.cancel()
        try:
            await task
        except (asyncio.CancelledError, ConnectionError):
            pass
    return LegResult(list(records.values()), start, pending["protocol_errors"])


def run_leg(port: int, messages: Sequence[Dict], dues: Sequence[float]) -> LegResult:
    return asyncio.run(_run_leg(port, messages, dues))


# ---------------------------------------------------------------------------
# Correctness: every result against a local compile of the same request.
# ---------------------------------------------------------------------------


class Oracle:
    """Local compiles of the distinct requests: what every answer must equal."""

    def __init__(self, messages: Sequence[Dict]) -> None:
        from repro.pipeline.compiler import compile_procedure
        from repro.service.protocol import parse_compile_request, resolve_compile_request, result_payload

        self.expected_bytes: Dict[str, Optional[bytes]] = {}
        for message in messages:
            signature = parse_compile_request(message).signature()
            if signature in self.expected_bytes:
                continue
            resolved = resolve_compile_request(parse_compile_request(message))
            try:
                compiled = compile_procedure(
                    (resolved.function, resolved.profile), machine=resolved.request.target,
                    cost_model=resolved.request.cost_model,
                    techniques=list(resolved.request.techniques),
                )
            except Exception as exc:  # noqa: BLE001 - no answer can match, so it counts as wrong
                report(f"{message['id']}: local compile raised {exc!r}")
                self.expected_bytes[signature] = None
                continue
            payload = result_payload(resolved, compiled)
            self.expected_bytes[signature] = json.dumps(payload, sort_keys=True).encode("utf-8")

    def expected(self, message: Dict) -> Optional[bytes]:
        from repro.service.protocol import parse_compile_request

        return self.expected_bytes[parse_compile_request(message).signature()]


class Verdict:
    """Operation counts over requests: attempted, failed, and wrong answers."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def check(self, leg: LegResult, oracle: Oracle) -> None:
        from repro.service.protocol import response_result_bytes

        self.wrong += leg.protocol_errors
        for record in leg.records:
            self.attempted += 1
            response = record.response
            if response is None:
                self.failed += 1
                report(f"{record.message['id']}: no answer")
            elif response.get("type") == "result":
                if response_result_bytes(response) != oracle.expected(record.message):
                    self.failed += 1
                    self.wrong += 1
                    report(f"{record.message['id']}: result differs from a local compile")
            else:
                self.failed += 1
                self.wrong += int(response.get("code") not in REFUSED)
                report(f"{record.message['id']}: {response.get('code')}: {response.get('message')}")


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def service_metrics(legs: Sequence[LegResult]) -> Dict[str, float]:
    """Per-request stage metrics from the responses' own timing and service fields."""

    queue_ms, compile_ms, other_ms, batch_sizes, late = [], [], [], [], []
    answered = coalesced = hits = tier_hits = rejected = 0
    for leg in legs:
        late += leg.lateness_ms()
        for record in leg.records:
            response = record.response or {}
            if response.get("type") != "result":
                rejected += int(response.get("code") in REFUSED)
                continue
            answered += 1
            timing, service = response.get("timing", {}), response.get("service", {})
            latency = (record.received - (leg.start + record.due)) * 1000.0
            queue_ms.append(timing.get("queue_ms", 0.0))
            compile_ms.append(timing.get("compile_ms", 0.0))
            other_ms.append(latency - queue_ms[-1] - compile_ms[-1])
            if service.get("batch_size"):
                batch_sizes.append(service["batch_size"])
            coalesced += int(bool(service.get("coalesced")))
            hits += int(service.get("cache") == "hit")
            tier_hits += int(service.get("cache") in ("tier", "peer"))
    share = (lambda n: n / answered) if answered else (lambda n: 0.0)
    return {
        "service.queue_ms.p50": percentile(queue_ms, 50) if queue_ms else 0.0,
        "service.compile_ms.p50": percentile(compile_ms, 50) if compile_ms else 0.0,
        "service.other_ms.p50": percentile(other_ms, 50) if other_ms else 0.0,
        "service.batch_size_mean": sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0,
        "service.coalesce_frac": share(coalesced),
        "service.cache_hit_frac": share(hits),
        "service.tier_hit_frac": share(tier_hits),
        "service.rejected": rejected,
        "bench.late_ms.p95": percentile(late, 95) if late else 0.0,
    }


def serve_procedures(procedures, workdir) -> Tuple[Dict[str, float], Verdict]:
    """Send a batch workload's procedures as inline IR, every round all due at t=0.

    Two rounds to ``repro-spill serve`` (the first with every program twice)
    give the stage, coalescing and cache-front metrics; two rounds to a
    2-shard fleet give ``service.tier_hit_frac``.  Fails the run when a path
    in :data:`MUST_FIRE` never fired.
    """

    messages = [inline_message(f"p{i}", p) for i, p in enumerate(procedures)]
    # Each copy follows its original at once, while the original is in flight.
    doubled = [m for message in messages for m in (message, dict(message, id=message["id"] + ".dup"))]
    again = [dict(m, id=f"again.{m['id']}") for m in messages]
    rounds = {"serve": (doubled, again), "fleet": (messages, again)}
    legs: Dict[str, List[LegResult]] = {}
    for kind, kind_rounds in rounds.items():
        child = Child(kind, workdir.fresh("server"))
        try:
            legs[kind] = [run_leg(child.port, batch, [0.0] * len(batch)) for batch in kind_rounds]
        finally:
            child.stop()
    oracle = Oracle(messages)
    verdict = Verdict()
    for leg in legs["serve"] + legs["fleet"]:
        verdict.check(leg, oracle)
    metrics = service_metrics(legs["serve"])
    metrics["service.tier_hit_frac"] = service_metrics(legs["fleet"])["service.tier_hit_frac"]
    unfired = [name for name in MUST_FIRE if not metrics[name] > 0]
    if unfired and verdict.failed == 0:
        raise BenchError(f"service paths never fired: {', '.join(unfired)}")
    return metrics, verdict
