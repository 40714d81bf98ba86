"""A server that hangs up mid-run costs transport errors, never a crash.

A loadgen connection can be closed under it at any time: a ``shutdown``
request, a SIGTERM drain or a killed fleet shard.  Every request made on
that connection afterwards must fail as a counted transport error.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.service.client import AsyncServiceClient
from repro.service.loadgen import PARTIAL_STATS, build_request_plan, run_load
from repro.service.protocol import decode_message, encode_message, hello_message


@pytest.fixture
def hangup_server():
    """A server that answers ``hello`` and one request, then closes."""

    ready = threading.Event()
    state = {}

    def serve():
        async def handle(reader, writer):
            await reader.readline()  # client hello
            writer.write(encode_message(hello_message({"name": "fake"})))
            await writer.drain()
            line = await reader.readline()
            if line:
                message = decode_message(line)
                writer.write(
                    encode_message(
                        {
                            "type": "result",
                            "id": message.get("id"),
                            "result": {"answer": 1},
                            "pass_seconds": {},
                            "service": {"cache": "miss"},
                        }
                    )
                )
                await writer.drain()
            writer.close()

        async def main():
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            state["port"] = server.sockets[0].getsockname()[1]
            state["loop"] = asyncio.get_running_loop()
            state["stop"] = asyncio.Event()
            ready.set()
            await state["stop"].wait()
            server.close()
            await server.wait_closed()

        asyncio.run(main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(10.0)
    yield state["port"]
    state["loop"].call_soon_threadsafe(state["stop"].set)
    thread.join(10.0)


def test_request_on_a_closed_link_raises_connection_error(hangup_server):
    async def scenario():
        client = await AsyncServiceClient.connect("127.0.0.1", hangup_server, 10.0)
        reply = await client.request({"type": "stats", "id": "a"}, 10.0)
        assert reply["id"] == "a"
        for _ in range(200):
            if not client.connected:
                break
            await asyncio.sleep(0.01)
        assert not client.connected
        with pytest.raises(ConnectionError):
            await client.request({"type": "stats", "id": "b"}, 10.0)
        await client.close()

    asyncio.run(scenario())


def test_closed_loop_run_counts_transport_errors_after_hangup(hangup_server):
    plan = build_request_plan(mix="uniform", requests=5, seed=4)
    report = run_load("127.0.0.1", hangup_server, plan, clients=1, timeout=10.0)
    assert report.completed == 1
    assert report.transport_errors == len(plan) - 1
    assert report.server_stats == PARTIAL_STATS


def test_hangup_before_the_handshake_reply_raises_connection_error():
    async def scenario():
        async def hang_up(reader, writer):
            await reader.readline()
            writer.close()

        server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            with pytest.raises(ConnectionError):
                await AsyncServiceClient.connect("127.0.0.1", port, timeout=10.0)
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())
