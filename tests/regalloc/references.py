"""Set-based reference implementations of the allocator's mask hot path.

These are the straightforward algorithms the bit-position code replaced:
the sort-based simplify/select colouring over ``Register`` objects, the
"live through or mentioned" callee-saved occupancy, and an operand walk for
virtual registers left after allocation.  They exist only as oracles for
the tests, which assert that the production code agrees with them exactly.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.liveness import compute_liveness
from repro.ir.function import Function
from repro.ir.values import PhysicalRegister, Register, VirtualRegister
from repro.regalloc.coloring import ColoringResult
from repro.regalloc.interference import InterferenceGraph
from repro.regalloc.live_ranges import LiveRangeInfo
from repro.regalloc.rewriter import is_spill_temp
from repro.spill.model import CalleeSavedUsage
from repro.target.machine import MachineDescription


def allowed_registers(
    register: Register,
    ranges: LiveRangeInfo,
    machine: MachineDescription,
) -> Tuple[PhysicalRegister, ...]:
    """The physical registers a virtual register may be assigned, in preference order."""

    live_range = ranges.ranges.get(register)
    crosses_call = live_range.crosses_call if live_range is not None else False
    used_by_return = live_range.used_by_return if live_range is not None else False
    is_parameter = live_range.is_parameter if live_range is not None else False
    if is_parameter:
        return () if crosses_call else machine.caller_saved
    if crosses_call and used_by_return:
        return ()
    if crosses_call:
        return machine.callee_saved
    if used_by_return:
        return machine.caller_saved
    return machine.caller_saved + machine.callee_saved


def color_graph_reference(
    graph: InterferenceGraph,
    ranges: LiveRangeInfo,
    machine: MachineDescription,
) -> ColoringResult:
    """The original sort-based colouring over ``Register`` sets."""

    result = ColoringResult()
    nodes = sorted(graph.nodes, key=lambda r: r.name)
    if not nodes:
        return result

    allowed: Dict[Register, Tuple[PhysicalRegister, ...]] = {
        node: allowed_registers(node, ranges, machine) for node in nodes
    }
    degrees: Dict[Register, int] = {node: graph.degree(node) for node in nodes}
    partners = graph.partner_map()
    removed: Set[Register] = set()
    stack: List[Register] = []

    def spill_metric(node: Register) -> float:
        if is_spill_temp(node):
            return float("inf")
        live_range = ranges.ranges.get(node)
        cost = live_range.spill_cost if live_range is not None else 0.0
        degree = max(degrees[node], 1)
        return cost / degree

    work = set(nodes)
    while work:
        candidate = None
        for node in sorted(work, key=lambda r: (degrees[r], r.name)):
            if degrees[node] < len(allowed[node]):
                candidate = node
                break
        if candidate is None:
            candidate = min(sorted(work, key=lambda r: r.name), key=spill_metric)
        work.remove(candidate)
        removed.add(candidate)
        stack.append(candidate)
        for neighbour in graph.neighbours(candidate):
            if neighbour not in removed:
                degrees[neighbour] -= 1

    while stack:
        node = stack.pop()
        taken = {
            result.assignment[n]
            for n in graph.neighbours(node)
            if n in result.assignment
        }
        chosen: Optional[PhysicalRegister] = None
        for partner in partners.get(node, ()):
            partner_colour = result.assignment.get(partner)
            if (
                partner_colour is not None
                and partner_colour not in taken
                and partner_colour in allowed[node]
            ):
                chosen = partner_colour
                break
        if chosen is None:
            for candidate in allowed[node]:
                if candidate not in taken:
                    chosen = candidate
                    break
        if chosen is None:
            result.spilled.append(node)
        else:
            result.assignment[node] = chosen

    return result


def compute_callee_saved_usage_reference(
    function: Function, machine: MachineDescription
) -> CalleeSavedUsage:
    """The original set-based occupancy computation."""

    callee_saved: FrozenSet[PhysicalRegister] = machine.callee_saved_set
    liveness = compute_liveness(function)
    occupancy: Dict[PhysicalRegister, Set[str]] = {}

    for block in function.blocks:
        label = block.label
        present: Set[PhysicalRegister] = set()
        for register in liveness.live_in[label] | liveness.live_out[label]:
            if register in callee_saved:
                present.add(register)  # live through or across the block
        for inst in block.instructions:
            for register in inst.registers():
                if register in callee_saved:
                    present.add(register)
        for register in present:
            occupancy.setdefault(register, set()).add(label)

    return CalleeSavedUsage.from_blocks(occupancy)


def unassigned_virtual_registers(function: Function) -> Set[VirtualRegister]:
    """Virtual registers still present after the rewrite (should be empty)."""

    return {
        r
        for inst in function.instructions()
        for r in inst.registers()
        if isinstance(r, VirtualRegister)
    }
