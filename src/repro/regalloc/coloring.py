"""Graph colouring in the Chaitin/Briggs style.

The colouring works on the interference graph with *register classes*: a live
range that crosses a call may only receive a callee-saved register (a
caller-saved register would be clobbered by the callee), every other range
prefers caller-saved registers so that callee-saved registers — and their
save/restore obligation — are only used when they pay for themselves.  This
mirrors the behaviour the paper relies on: callee-saved registers are
allocated to variables that span call sites.

The algorithm is the classic simplify/select with Briggs' optimistic
colouring: nodes are pushed on a stack in order of increasing "difficulty"
(low degree first, then cheapest spill cost), popped in reverse order and
coloured if possible.  Nodes that cannot be coloured become spill candidates
and are returned to the driver, which inserts spill code and repeats.

:func:`color_round` runs on register bit positions (a
:class:`~repro.regalloc.live_ranges.RoundScan`): degrees and neighbour walks
are mask operations, and a colour is an index into the machine's
caller-first ``allocation_order``.  :func:`color_graph` is the adapter for
the ``Register``-keyed public types.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.analysis.bitset import RegisterIndex, bit_positions
from repro.ir.values import PhysicalRegister, Register
from repro.regalloc.interference import InterferenceGraph
from repro.regalloc.live_ranges import LiveRange, LiveRangeInfo, RoundScan
from repro.regalloc.rewriter import is_spill_temp
from repro.target.machine import MachineDescription


@dataclass
class ColoringResult:
    """Outcome of one colouring attempt."""

    assignment: Dict[Register, PhysicalRegister] = field(default_factory=dict)
    spilled: List[Register] = field(default_factory=list)

    @property
    def is_complete(self) -> bool:
        return not self.spilled

    def callee_saved_assigned(self, machine: MachineDescription) -> Set[PhysicalRegister]:
        return {
            phys for phys in self.assignment.values() if machine.is_callee_saved(phys)
        }


def _colour_range(scan: RoundScan, low: int, machine: MachineDescription) -> Tuple[int, int]:
    """The ``allocation_order`` slice a node may be coloured from, as ``(start, stop)``.

    ``allocation_order`` lists the caller-saved registers first, so each
    register class is a contiguous slice and scanning it upwards is the
    class's preference order.
    """

    callers = len(machine.caller_saved)
    everything = len(machine.allocation_order)
    crosses_call = scan.crosses_call & low
    used_by_return = scan.used_by_return & low
    if scan.parameters & low:
        # Incoming arguments live in caller-saved registers.  One that crosses
        # a call should not happen once parameters are isolated at the entry;
        # spill it defensively rather than hand it a callee-saved register.
        return (0, 0) if crosses_call else (0, callers)
    if crosses_call and used_by_return:
        # The value must survive a call (needs a callee-saved register) *and*
        # be returned (needs a caller-saved register): no single register
        # satisfies both, so the range is always spilled and its short reload
        # before the return gets a caller-saved register.
        return (0, 0)
    if crosses_call:
        # A caller-saved register would be clobbered by the call; only
        # callee-saved registers can hold the value across it.
        return (callers, everything)
    if used_by_return:
        # Returned values travel in caller-saved registers; a callee-saved
        # register would have to be restored before the return, clobbering
        # the value being returned.
        return (0, callers)
    # Prefer caller-saved registers (no save/restore obligation); fall back to
    # callee-saved registers under pressure.
    return (0, everything)


def color_round(
    scan: RoundScan, machine: MachineDescription
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Colour one round's interference graph on bit positions.

    Returns ``(assigned, spilled)``: ``(bit, colour)`` pairs and the spilled
    bits, both in select order; ``colour`` indexes
    ``machine.allocation_order``.

    Simplify pops the ``(degree, name)``-minimal node whose degree is below
    its class size from a lazily invalidated heap (stale entries — node
    removed, or its degree changed since — are discarded on pop; entries
    over their class bound are set aside and re-pushed).  When none
    qualifies, the node with the smallest ``(spill cost / degree, name)`` is
    removed optimistically.
    """

    facts = scan.index.facts
    adjacency = scan.adjacency
    names = {bit: facts[bit].name for bit in bit_positions(scan.nodes)}
    if not names:
        return [], []
    order = sorted(names, key=names.__getitem__)

    span = {bit: _colour_range(scan, 1 << bit, machine) for bit in order}
    degrees = {bit: adjacency[bit].bit_count() for bit in order}
    temps: Dict[int, bool] = {}

    def spill_metric(bit: int) -> float:
        # Spilling one of the allocator's own reload/store temporaries makes
        # no progress (its replacement is an identical one-instruction range),
        # so they are never optimistic spill candidates; pressure is relieved
        # by splitting an original live-through range instead.
        temp = temps.get(bit)
        if temp is None:
            temp = temps[bit] = is_spill_temp(facts[bit])
        if temp:
            return float("inf")
        return scan.spill_cost[bit] / max(degrees[bit], 1)

    work = scan.nodes
    stack: List[int] = []
    heap: List[Tuple[int, str, int]] = [(degrees[bit], names[bit], bit) for bit in order]
    heapq.heapify(heap)
    while work:
        candidate = -1
        over_bound: List[Tuple[int, str, int]] = []
        while heap:
            entry = heapq.heappop(heap)
            degree, _, bit = entry
            if not work >> bit & 1 or degrees[bit] != degree:
                continue
            start, stop = span[bit]
            if degree < stop - start:
                candidate = bit
                break
            over_bound.append(entry)
        for entry in over_bound:
            heapq.heappush(heap, entry)
        if candidate < 0:
            candidate = min(
                bit_positions(work), key=lambda bit: (spill_metric(bit), names[bit])
            )
        work ^= 1 << candidate
        stack.append(candidate)
        neighbours = adjacency[candidate] & work
        while neighbours:
            low = neighbours & -neighbours
            neighbours ^= low
            bit = low.bit_length() - 1
            degree = degrees[bit] - 1
            degrees[bit] = degree
            heapq.heappush(heap, (degree, names[bit], bit))

    # Move-related hints: each node tries its partners' colours first, in
    # partner-name order.
    partners: Dict[int, Set[int]] = {}
    for dst, src in scan.move_pairs:
        partners.setdefault(dst, set()).add(src)
        partners.setdefault(src, set()).add(dst)

    # Select: pop nodes and colour them (Briggs' optimistic colouring).
    # ``holders[c]`` is the mask of nodes coloured ``c`` so far, so a colour
    # is taken by a neighbour exactly when it meets the node's adjacency.
    holders = [0] * len(machine.allocation_order)
    colour_of: Dict[int, int] = {}
    assigned: List[Tuple[int, int]] = []
    spilled: List[int] = []
    for bit in reversed(stack):
        adjacent = adjacency[bit]
        start, stop = span[bit]
        chosen = -1
        for partner in sorted(partners.get(bit, ()), key=lambda b: facts[b].name):
            colour = colour_of.get(partner, -1)
            if start <= colour < stop and not holders[colour] & adjacent:
                chosen = colour
                break
        if chosen < 0:
            for colour in range(start, stop):
                if not holders[colour] & adjacent:
                    chosen = colour
                    break
        if chosen < 0:
            spilled.append(bit)
        else:
            colour_of[bit] = chosen
            holders[chosen] |= 1 << bit
            assigned.append((bit, chosen))
    return assigned, spilled


def color_graph(
    graph: InterferenceGraph,
    ranges: LiveRangeInfo,
    machine: MachineDescription,
) -> ColoringResult:
    """Colour the interference graph; uncolourable nodes become spill candidates.

    Interns the graph's nodes in name order and runs :func:`color_round`.
    """

    nodes = sorted(graph.nodes, key=lambda r: r.name)
    index = RegisterIndex(nodes)
    live_ranges = [ranges.ranges.get(node) or LiveRange(node) for node in nodes]

    def mask_where(flag: str) -> int:
        return sum(1 << bit for bit, live in enumerate(live_ranges) if getattr(live, flag))

    scan = RoundScan(
        index=index,
        nodes=(1 << len(nodes)) - 1,
        spill_cost=[live.spill_cost for live in live_ranges],
        crosses_call=mask_where("crosses_call"),
        used_by_return=mask_where("used_by_return"),
        parameters=mask_where("is_parameter"),
        adjacency=[index.mask_of(graph.adjacency(node)) for node in nodes],
        move_pairs={(index.add(a), index.add(b)) for a, b in graph.move_pairs},
    )
    assigned, spilled = color_round(scan, machine)
    order = machine.allocation_order
    return ColoringResult(
        assignment={nodes[bit]: order[colour] for bit, colour in assigned},
        spilled=[nodes[bit] for bit in spilled],
    )
