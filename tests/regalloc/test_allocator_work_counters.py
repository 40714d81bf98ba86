"""Deterministic work counters for the register allocator.

Wall-clock gates are noisy; call counts are not.  These tests wrap the
operand-tuple accessors of ``Instruction`` (``registers_read``,
``registers_written`` and ``registers``) and the per-block live-after pass
(``live_masks_at_each_instruction``, wherever a module imported it) and
allocate two rungs of the large-procedure ladder:

* an allocation round walks each instruction's operand tuples a bounded
  number of times — the liveness solve packs them into masks once, the
  round's scan reads them once more for reference counts, and everything
  else (interference, colouring, the rewrite) works on the masks;
* each round runs the live-after pass once per block: live ranges and
  interference come out of the same walk.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

import repro.analysis.bitset as bitset
from repro.ir.instructions import Instruction
from repro.regalloc.allocator import allocate_registers
from repro.target.parisc import parisc_target
from repro.workloads.generator import GeneratorConfig, generate_procedure

SMALL, LARGE = 48, 216
#: Operand-tuple walks allowed per instruction and allocation round.
WALKS_PER_INSTRUCTION = 8
_WALKERS = ("registers_read", "registers_written", "registers")


def _count(monkeypatch, owner, name, counts, key, original=None):
    original = original if original is not None else owner.__dict__[name]

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def _work(n: int):
    """``(instructions, blocks, rounds, counts)`` for allocating ladder rung ``n``.

    Keys: ``walks`` (operand-tuple accessor calls) and ``live_masks``
    (live-after passes), both counted inside ``allocate_registers`` only.
    """

    procedure = generate_procedure(GeneratorConfig(num_segments=n, seed=n))
    function = procedure.function
    counts: Counter = Counter()
    live_masks = bitset.live_masks_at_each_instruction
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name in _WALKERS:
            _count(monkeypatch, Instruction, name, counts, "walks")
        for module in list(sys.modules.values()):
            if getattr(module, "live_masks_at_each_instruction", None) is live_masks:
                _count(
                    monkeypatch, module, "live_masks_at_each_instruction",
                    counts, "live_masks", original=live_masks,
                )
        allocation = allocate_registers(function, parisc_target(), procedure.profile)
    return function.instruction_count(), len(function.blocks), allocation.rounds, counts


@pytest.fixture(scope="module")
def rungs():
    return _work(SMALL), _work(LARGE)


def test_a_round_walks_each_instruction_a_bounded_number_of_times(rungs):
    for instructions, _, rounds, counts in rungs:
        assert counts["walks"] > 0
        assert counts["walks"] <= WALKS_PER_INSTRUCTION * instructions * rounds


def test_a_round_runs_the_live_after_pass_once_per_block(rungs):
    for _, blocks, rounds, counts in rungs:
        assert counts["live_masks"] == blocks * rounds
