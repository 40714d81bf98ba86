"""Interference graphs over virtual registers.

Two virtual registers interfere when one is defined at a point where the
other is live (the classic Chaitin construction); move instructions get the
usual exemption so that copy-related registers may share a colour.

The allocator never builds this ``Set``-based graph: it colours the
bit-keyed adjacency of :func:`repro.regalloc.live_ranges.scan_round`
directly.  :func:`build_interference_graph` materializes that same
adjacency for callers of the public API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.analysis.bitset import bit_positions
from repro.analysis.liveness import LivenessInfo, liveness_bits
from repro.ir.function import Function
from repro.ir.values import Register
from repro.regalloc.live_ranges import scan_round


#: Shared empty set handed out by :meth:`InterferenceGraph.adjacency` for
#: unknown registers (never mutated).
_EMPTY_ADJACENCY: Set[Register] = set()


@dataclass
class InterferenceGraph:
    """An undirected graph over virtual registers."""

    nodes: Set[Register] = field(default_factory=set)
    _adjacency: Dict[Register, Set[Register]] = field(default_factory=dict)
    #: Pairs related by moves (candidates for coalescing / same-colour hints).
    move_pairs: Set[Tuple[Register, Register]] = field(default_factory=set)

    def add_node(self, register: Register) -> None:
        self.nodes.add(register)
        self._adjacency.setdefault(register, set())

    def add_edge(self, a: Register, b: Register) -> None:
        if a == b:
            return
        self.add_node(a)
        self.add_node(b)
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)

    def interferes(self, a: Register, b: Register) -> bool:
        return b in self._adjacency.get(a, set())

    def neighbours(self, register: Register) -> Set[Register]:
        return set(self._adjacency.get(register, set()))

    def adjacency(self, register: Register) -> Set[Register]:
        """The internal neighbour set of ``register`` — treat as read-only.

        :meth:`neighbours` copies; loops that only iterate use this accessor
        to skip the copy.
        """

        return self._adjacency.get(register, _EMPTY_ADJACENCY)

    def degree(self, register: Register) -> int:
        return len(self._adjacency.get(register, set()))

    def num_edges(self) -> int:
        return sum(len(adj) for adj in self._adjacency.values()) // 2

    def partner_map(self) -> Dict[Register, List[Register]]:
        """Every node's move partners, each list in name order.

        One pass over :attr:`move_pairs`; colouring takes the first partner
        whose colour fits, so the name order keeps that choice independent
        of set iteration order (and so of ``PYTHONHASHSEED``).
        """

        partners: Dict[Register, Set[Register]] = {}
        for a, b in self.move_pairs:
            partners.setdefault(a, set()).add(b)
            partners.setdefault(b, set()).add(a)
        return {
            node: sorted(others, key=lambda r: r.name) for node, others in partners.items()
        }

    def move_partners(self, register: Register) -> List[Register]:
        """The move partners of ``register``, in name order."""

        return self.partner_map().get(register, [])


def build_interference_graph(
    function: Function, liveness: LivenessInfo
) -> InterferenceGraph:
    """Chaitin-style interference graph over the virtual registers of ``function``."""

    scan = scan_round(function, liveness_bits(function, liveness))
    index = scan.index
    fact_at = index.fact_at
    graph = InterferenceGraph()
    for bit in bit_positions(scan.nodes):
        register = fact_at(bit)
        graph.nodes.add(register)
        graph._adjacency[register] = index.set_of(scan.adjacency[bit])  # hotpath: ok
    graph.move_pairs = {(fact_at(dst), fact_at(src)) for dst, src in scan.move_pairs}
    return graph
