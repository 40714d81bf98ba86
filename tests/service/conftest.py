"""Shared fixtures for the compile-service test suite.

The serving tests run a *real* :class:`~repro.service.server.CompileServer`
on a background thread (via :class:`~repro.service.embedded.EmbeddedServer`)
and talk to it over actual sockets — no mocked transports — so the
admission, batching, coalescing and drain behaviour under test is exactly
what production connections see.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import pytest

from repro.pipeline.compiler import compile_many
from repro.service.embedded import EmbeddedServer
from repro.service.protocol import (
    parse_compile_request,
    resolve_compile_request,
    result_payload,
)

#: A small but non-trivial IR program used by inline-IR tests (one guarded
#: call-crossing region, so every technique places something).
SAMPLE_IR = """
func sample() {
entry:
  li v0, #5
  cmplt v1, v0, #3
  br v1, @merge
body:
  call @helper() -> (v2)
  add v3, v2, #1
  add v4, v2, #2
  call @helper2(v2)
  add v5, v3, v4
merge:
  li v6, #7
  ret v6
}
"""

#: Malformed ``profile`` objects every request kind must refuse the same way.
MALFORMED_PROFILES = [
    {"probabilities": "x"},
    {"probabilities": {"no-arrow": 0.5}},
    {"probabilities": {"a->b": 1.5}},
    {"probabilities": {"a->b": -0.5}},
    {"invocations": "many"},
    {"invocations": 0},
    {"invocations": -3.0},
    {"unknown_knob": 1},
]


@pytest.fixture
def embedded_server():
    """Factory fixture: ``embedded_server(**kwargs)`` yields a live server."""

    @contextmanager
    def factory(**kwargs):
        with EmbeddedServer(**kwargs) as server:
            yield server

    return factory


@pytest.fixture
def sample_ir():
    """The inline-IR sample program."""

    return SAMPLE_IR


def oracle_result_bytes(message) -> bytes:
    """The canonical result bytes a direct ``compile_many`` produces.

    The serial, in-process ground truth every served response must match
    byte-for-byte (the ISSUE's core invariant).
    """

    request = parse_compile_request(message)
    resolved = resolve_compile_request(request)
    compiled = compile_many(
        [(resolved.function, resolved.profile)],
        machine=request.target,
        cost_model=request.cost_model,
        techniques=list(request.techniques),
    )[0]
    return json.dumps(result_payload(resolved, compiled), sort_keys=True).encode("utf-8")


@pytest.fixture
def oracle():
    """Fixture handle on :func:`oracle_result_bytes`."""

    return oracle_result_bytes
