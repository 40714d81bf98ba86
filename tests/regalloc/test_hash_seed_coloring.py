"""Register assignments must not depend on ``PYTHONHASHSEED``.

Select gives a node the colour of a move partner when one fits.  In the
procedure below ``x`` is copied from ``a`` on one path and from ``b`` on the
other, so it has two move partners; ``a`` and ``b`` interfere, are coloured
before ``x`` and hold different registers, and either register fits ``x``.
When the partners were visited in set order, hash seeds 0 and 2 gave ``x``
different registers; visited in name order, ``x`` always takes ``a``'s.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

_SNIPPET = """
import json
from repro.ir.builder import FunctionBuilder
from repro.ir.values import VirtualRegister
from repro.regalloc.allocator import allocate_registers
from repro.target.registry import get_target

a, b, s, t, x = (VirtualRegister(name) for name in "abstx")
builder = FunctionBuilder("partners")
builder.block("entry")
builder.const(1, a)
builder.const(2, b)
builder.add(a, b, s)
builder.branch(s, "left")
builder.block("right")
builder.move(b, x)
builder.add(b, 1, t)
builder.jump("join")
builder.block("left")
builder.move(a, x)
builder.add(a, 1, t)
builder.block("join")
builder.add(x, t, s)
builder.ret([s])
allocation = allocate_registers(builder.build(), get_target("parisc"))
print(json.dumps({v.name: p.name for v, p in allocation.assignment.items()}, sort_keys=True))
"""


def _assignment_under_hashseed(seed: str) -> str:
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


def test_move_partner_choice_is_the_same_across_hash_seeds():
    zero = _assignment_under_hashseed("0")
    assignment = json.loads(zero)
    assert assignment["a"] != assignment["b"]
    assert assignment["x"] == assignment["a"]
    assert _assignment_under_hashseed("2") == zero
