"""Placements must not depend on ``PYTHONHASHSEED``.

``SaveRestoreSet.locations`` is a frozenset, so its iteration order changes
with the interpreter's hash seed.  The cost models sum float edge counts
over it; a plain left-to-right sum can then land one ulp above or below an
exact tie.  On ``scenario:chaos_cfg:1003:43`` the root comparison for
``gr5`` is such a tie (2000 vs 2000), and before the sums became
order-independent hash seeds 0 and 2 placed ``gr5`` differently.
"""

from __future__ import annotations

import os
import subprocess
import sys

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

_SNIPPET = """
import json
from repro.pipeline.compiler import compile_many
from repro.service.protocol import (
    parse_compile_request, resolve_compile_request, result_payload,
)
request = parse_compile_request(
    {"type": "compile", "id": "r", "program": {"scenario": "scenario:chaos_cfg:1003:43"}}
)
resolved = resolve_compile_request(request)
compiled = compile_many(
    [(resolved.function, resolved.profile)],
    machine=request.target,
    cost_model=request.cost_model,
    techniques=list(request.techniques),
    maximal_regions=True,
)[0]
print(json.dumps(result_payload(resolved, compiled), sort_keys=True))
"""


def _payload_under_hashseed(seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.path.abspath(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _SNIPPET],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return completed.stdout.strip()


def test_tied_root_comparison_places_identically_across_hash_seeds():
    zero = _payload_under_hashseed("0")
    assert zero  # a real payload, not empty output
    assert _payload_under_hashseed("2") == zero
