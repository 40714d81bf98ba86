"""Live ranges of virtual registers, and the one walk an allocation round makes.

A live range aggregates everything the allocator needs to know about one
virtual register: where it is live, whether it is live across a call (in
which case a caller-saved register would be clobbered, so the range needs a
callee-saved register or a stack slot), how often it is referenced, and its
spill cost.

:func:`scan_round` gathers all of it — together with the Chaitin
interference edges and the move partners — in one forward walk per block
over the packed-bitset liveness (:mod:`repro.analysis.bitset`).  Everything
is keyed by the register's bit position in the compile's
:class:`~repro.analysis.bitset.RegisterIndex`; the allocator colours that
:class:`RoundScan` directly, and :func:`compute_live_ranges` /
:func:`repro.regalloc.interference.build_interference_graph` materialize it
into the ``Register``-keyed public types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.analysis.bitset import (
    BitLiveness,
    RegisterIndex,
    bit_positions,
    live_masks_at_each_instruction,
)
from repro.analysis.liveness import LivenessInfo, compute_liveness
from repro.analysis.loops import compute_loop_forest
from repro.ir.function import Function
from repro.ir.instructions import Opcode
from repro.ir.values import Register, VirtualRegister
from repro.profiling.profile_data import EdgeProfile


@dataclass
class LiveRange:
    """Aggregate information about one virtual register."""

    register: Register
    blocks: Set[str] = field(default_factory=set)
    definitions: int = 0
    uses: int = 0
    crosses_call: bool = False
    #: The register is an incoming parameter; arguments arrive in caller-saved
    #: registers, so such ranges never get a callee-saved register directly.
    is_parameter: bool = False
    #: The value is returned by a ``ret`` instruction; the calling convention
    #: returns values in caller-saved registers, so such ranges must not be
    #: given a callee-saved register (its restore would clobber the result).
    used_by_return: bool = False
    spill_cost: float = 0.0

    @property
    def references(self) -> int:
        return self.definitions + self.uses

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LiveRange {self.register} blocks={len(self.blocks)} refs={self.references} "
            f"crosses_call={self.crosses_call} cost={self.spill_cost:.1f}>"
        )


@dataclass
class LiveRangeInfo:
    """Live ranges for every virtual register plus the liveness solution."""

    ranges: Dict[Register, LiveRange]
    liveness: LivenessInfo

    def range_of(self, register: Register) -> LiveRange:
        return self.ranges[register]

    def registers(self) -> List[Register]:
        return sorted(self.ranges.keys(), key=lambda r: r.name)

    def call_crossing_registers(self) -> List[Register]:
        return [r for r in self.registers() if self.ranges[r].crosses_call]


@dataclass
class RoundScan:
    """One allocation round's facts, keyed by register bit position.

    Lists are indexed by bit and masks are over bits of ``index``; only the
    bits in ``nodes`` (the virtual registers the function mentions) are
    meaningful.
    """

    index: RegisterIndex
    nodes: int
    spill_cost: List[float]
    crosses_call: int
    used_by_return: int
    parameters: int
    #: Symmetric interference mask per bit.
    adjacency: List[int]
    #: ``(destination, source)`` bits of the moves exempted from interference.
    move_pairs: Set[Tuple[int, int]]
    # Read only by the live-range adapter (:func:`compute_live_ranges`):
    definitions: List[int] = field(default_factory=list)
    uses: List[int] = field(default_factory=list)
    #: ``(label, mask)`` per block: the virtual registers defined, used or
    #: live at the block's boundary (the parameters count as defined at the
    #: entry).
    presence: List[Tuple[str, int]] = field(default_factory=list)


def block_weights(function: Function, profile: Optional[EdgeProfile]) -> Dict[str, float]:
    """Spill-cost weight of every block: profile count, or 10^loop-depth."""

    if profile is not None:
        return {
            label: max(count, 0.0)
            for label, count in profile.block_counts(function).items()
        }
    loops = compute_loop_forest(function)
    return {
        label: float(10 ** loops.loop_depth(label)) for label in function.block_labels
    }


def scan_round(
    function: Function, bits: BitLiveness, weights: Optional[Mapping[str, float]] = None
) -> RoundScan:
    """Walk ``function`` once and collect everything one allocation round needs.

    Per block, one backward pass (:func:`live_masks_at_each_instruction`)
    gives the live-after masks and one forward pass visits each instruction:

    * spill cost and reference counts walk the operand tuples, so reading a
      register twice counts two uses; per register the weights are added in
      program order (blocks in order, instructions forward, defs then uses);
    * a register defined at a point where another is live interferes with
      it (Chaitin), results of one instruction interfere with each other,
      and a move's source does not interfere with its destination through
      the move itself (the pair becomes move partners instead).

    ``weights`` maps labels to block weights; without it every cost is 0.
    """

    index = bits.index
    bit_of = index.bit_of
    vmask = index.virtual_mask
    size = len(index)
    cost = [0.0] * size
    definitions = [0] * size
    uses = [0] * size
    adjacency = [0] * size
    move_pairs: Set[Tuple[int, int]] = set()
    crosses_call = used_by_return = 0

    parameters = 0
    for param in function.params:
        if isinstance(param, VirtualRegister):
            bit = bit_of(param)
            parameters |= 1 << bit
            definitions[bit] += 1

    entry = function.entry.label
    presence: List[Tuple[str, int]] = []
    nodes = parameters
    for block in function.blocks:
        label = block.label
        weight = weights[label] if weights is not None else 0.0
        live_after = live_masks_at_each_instruction(function, bits, label)
        inst_masks = bits.instruction_masks(function, label)
        mentioned = bits.live_in[label] | bits.live_out[label]
        for position, inst in enumerate(block.instructions):
            written, read = inst_masks[position]
            mentioned |= written | read
            written &= vmask
            opcode = inst.opcode
            if written:
                live = (live_after[position] & vmask) | written
                source = 0
                if opcode is Opcode.MOV and inst.uses and isinstance(inst.uses[0], VirtualRegister):
                    source = 1 << bit_of(inst.uses[0])
                for reg in inst.registers_written():
                    if isinstance(reg, VirtualRegister):
                        dst = bit_of(reg)
                        definitions[dst] += 1
                        cost[dst] += weight
                        # The destination never interferes with itself.
                        others = live & ~(1 << dst)
                        if others & source:
                            move_pairs.add((dst, source.bit_length() - 1))
                            others &= ~source
                        adjacency[dst] |= others
            if read & vmask:
                for reg in inst.registers_read():
                    if isinstance(reg, VirtualRegister):
                        bit = bit_of(reg)
                        uses[bit] += 1
                        cost[bit] += weight
            if opcode is Opcode.CALL:
                crosses_call |= live_after[position] & vmask & ~written
            elif opcode is Opcode.RET:
                used_by_return |= read & vmask
        if label == entry:
            mentioned |= parameters
        mentioned &= vmask
        presence.append((label, mentioned))
        nodes |= mentioned

    # Parameters are all defined at once by the calling convention on entry,
    # so each interferes with everything live into the entry block — in
    # particular with every other live-in parameter, which would otherwise
    # carry no interference at all (parameters have no defining instruction)
    # and could be assigned one shared register.
    if parameters:
        entry_live = (bits.live_in.get(entry, 0) & vmask) | parameters
        for bit in bit_positions(parameters):
            adjacency[bit] |= entry_live & ~(1 << bit)

    # Edges were recorded from the defining side only; mirror them.
    for bit, mask in enumerate(list(adjacency)):
        for other in bit_positions(mask):
            adjacency[other] |= 1 << bit

    return RoundScan(
        index=index,
        nodes=nodes,
        spill_cost=cost,
        definitions=definitions,
        uses=uses,
        crosses_call=crosses_call,
        used_by_return=used_by_return,
        parameters=parameters,
        presence=presence,
        adjacency=adjacency,
        move_pairs=move_pairs,
    )


def compute_live_ranges(
    function: Function,
    profile: Optional[EdgeProfile] = None,
    machine=None,
) -> LiveRangeInfo:
    """Build live ranges for all virtual registers of ``function``.

    ``machine`` optionally selects the persistent per-target register index
    for the liveness solve (see :func:`repro.analysis.liveness.compute_liveness`).
    """

    liveness = compute_liveness(function, machine=machine)
    scan = scan_round(function, liveness.bits, block_weights(function, profile))
    fact_at = liveness.bits.index.fact_at
    by_bit = {
        bit: LiveRange(
            register=fact_at(bit),
            definitions=scan.definitions[bit],
            uses=scan.uses[bit],
            crosses_call=bool(scan.crosses_call >> bit & 1),
            is_parameter=bool(scan.parameters >> bit & 1),
            used_by_return=bool(scan.used_by_return >> bit & 1),
            spill_cost=scan.spill_cost[bit],
        )
        for bit in bit_positions(scan.nodes)
    }
    for label, mask in scan.presence:
        for bit in bit_positions(mask):
            by_bit[bit].blocks.add(label)
    ranges = {live_range.register: live_range for live_range in by_bit.values()}
    return LiveRangeInfo(ranges=ranges, liveness=liveness)
