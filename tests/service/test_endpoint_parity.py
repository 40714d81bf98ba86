"""The compile server and the fleet router answer bad input identically.

Both speak the JSON-lines protocol through one endpoint core, so one
script of hostile input must produce byte-identical frames from either,
apart from the role word in the version-mismatch text and the ``server``
info a ``hello`` reply carries.  The second half checks the server's one
in-flight map: a compile and a lint of the same program, in flight
together, each get their own answer.
"""

from __future__ import annotations

import json
import socket
from typing import Dict, List

from repro.service.embedded import EmbeddedServer
from repro.service.fleet import Fleet
from repro.service.protocol import (
    LINT_RESULT_SCHEMA,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    RESULT_SCHEMA,
    decode_message,
    encode_message,
    parse_lint_request,
    resolve_lint_request,
    response_result_bytes,
    run_lint_request,
)
from tests.service.conftest import oracle_result_bytes

HELLO = encode_message({"type": "hello", "protocol": PROTOCOL_VERSION})

#: One connection per entry: the frames sent, and how many replies to read.
#: A connection the endpoint drops also yields a final ``b""`` (EOF).
SCRIPT = [
    # A message before the handshake: protocol error, connection dropped.
    ([encode_message({"type": "stats", "id": "early"})], 1, True),
    # A wrong protocol version: protocol error, connection dropped.
    ([encode_message({"type": "hello", "protocol": PROTOCOL_VERSION + 98})], 1, True),
    # Bad JSON, an unknown type, stats with an extra field, then one
    # oversize frame, which drops the connection.
    (
        [
            HELLO,
            b"{not json\n",
            encode_message({"type": "frobnicate", "id": "u1"}),
            encode_message({"type": "stats", "id": "s1", "scope": "all"}),
            b"x" * (MAX_FRAME_BYTES + 4096) + b"\n",
        ],
        5,
        True,
    ),
    # A clean shutdown request.
    ([HELLO, encode_message({"type": "shutdown", "id": "bye"})], 2, False),
]


def _run_script(port: int) -> List[bytes]:
    frames: List[bytes] = []
    for sent, replies, dropped in SCRIPT:
        with socket.create_connection(("127.0.0.1", port), timeout=30) as raw:
            for frame in sent:
                raw.sendall(frame)
            with raw.makefile("rb") as stream:
                for _ in range(replies):
                    frames.append(stream.readline())
                if dropped:
                    frames.append(stream.readline())
    return frames


def _normalize(frame: bytes) -> bytes:
    """Remove what legitimately differs per role from one frame."""

    if frame and decode_message(frame).get("type") == "hello":
        message = decode_message(frame)
        message.pop("server", None)
        return encode_message(message)
    return frame.replace(b"router speaks", b"server speaks")


def test_server_and_router_answer_one_bad_script_byte_identically():
    with EmbeddedServer() as server:
        from_server = _run_script(server.port)
    with Fleet(shards=1, backend="thread", batch_window_ms=5.0) as fleet:
        from_router = _run_script(fleet.port)

    assert len(from_server) == len(from_router) == 12
    # The role words really are the only difference in the raw bytes.
    assert b"server speaks" in from_server[2]
    assert b"router speaks" in from_router[2]
    assert [_normalize(f) for f in from_server] == [_normalize(f) for f in from_router]
    # And the script exercised what it claims to.
    replies = [decode_message(f) for f in from_server if f]
    codes = [(r["type"], r.get("code")) for r in replies]
    assert codes == [
        ("error", "protocol"),
        ("error", "protocol"),
        ("hello", None),
        ("error", "bad_request"),
        ("error", "bad_request"),
        ("error", "bad_request"),
        ("error", "protocol"),
        ("hello", None),
        ("ok", None),
    ]
    assert from_server.count(b"") == 3


def test_compile_and_lint_in_flight_together_get_separate_answers():
    program = {"scenario": "scenario:call_web:3:0"}
    compile_message = {"type": "compile", "id": "c", "program": program}
    lint_message = {"type": "lint", "id": "l", "program": program}
    # A long batch window keeps the compile queued while the lint runs.
    with EmbeddedServer(batch_window_ms=300.0) as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=60) as raw:
            raw.sendall(HELLO)
            with raw.makefile("rb") as stream:
                assert decode_message(stream.readline())["type"] == "hello"
                raw.sendall(encode_message(compile_message) + encode_message(lint_message))
                replies: Dict[str, dict] = {}
                for _ in range(2):
                    reply = decode_message(stream.readline())
                    replies[reply["id"]] = reply
        stats = server.stats()

    compiled, linted = replies["c"], replies["l"]
    assert compiled["type"] == linted["type"] == "result"
    assert compiled["result"]["schema"] == RESULT_SCHEMA
    assert linted["result"]["schema"] == LINT_RESULT_SCHEMA
    assert compiled["service"]["coalesced"] is False
    assert linted["service"]["coalesced"] is False
    assert response_result_bytes(compiled) == oracle_result_bytes(compile_message)
    expected_lint = run_lint_request(resolve_lint_request(parse_lint_request(lint_message)))
    assert response_result_bytes(linted) == json.dumps(expected_lint, sort_keys=True).encode()
    assert stats["requests"]["coalesced"] == 0
    assert stats["requests"]["completed"] == 2
