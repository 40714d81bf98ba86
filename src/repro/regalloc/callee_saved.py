"""Callee-saved occupancy: which blocks each callee-saved register is live in.

After the virtual-to-physical rewrite, a callee-saved register is *occupied*
in every block where it holds a program value — where it is defined, used, or
live across the block.  This occupancy map (the shaded blocks of the paper's
figures) is the input shared by all three placement techniques.

The computation runs on the packed-bitset liveness solution: per block, the
occupied callee-saved registers are ``(live_in | live_out | uses | defs) &
callee_mask``.  The block-level ``uses``/``defs`` masks cover exactly the
registers mentioned by the block's instructions — every written register is
in ``defs``, and every read register is either upward-exposed (in ``uses``)
or previously defined in the block (in ``defs``) — so the mask expression
matches the historical "live through or mentioned" set computation
bit for bit (the set-based reference lives with the differential tests in
``tests/regalloc``).
"""

from __future__ import annotations

from typing import Dict, Set

from repro.analysis.liveness import compute_liveness
from repro.ir.function import Function
from repro.ir.values import PhysicalRegister
from repro.spill.model import CalleeSavedUsage
from repro.target.machine import MachineDescription


def compute_callee_saved_usage(
    function: Function, machine: MachineDescription
) -> CalleeSavedUsage:
    """Blocks occupied by each callee-saved register of ``machine``."""

    liveness = compute_liveness(function, machine=machine)
    bits = liveness.bits
    index = bits.index
    callee_mask = 0
    for register in machine.callee_saved:
        callee_mask |= 1 << index.add(register)

    occupancy: Dict[PhysicalRegister, Set[str]] = {}
    live_in = bits.live_in
    live_out = bits.live_out
    uses = bits.uses
    defs = bits.defs
    for label in function.block_labels:
        present = (live_in[label] | live_out[label] | uses[label] | defs[label]) & callee_mask
        if present:
            for register in index.iter_bits(present):
                occupancy.setdefault(register, set()).add(label)

    return CalleeSavedUsage.from_blocks(occupancy)

