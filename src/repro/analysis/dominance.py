"""Dominator and post-dominator trees.

Implementation of the iterative algorithm of Cooper, Harvey and Kennedy
("A Simple, Fast Dominance Algorithm").  The algorithm works on any
:class:`~repro.analysis.graph.DiGraph`; convenience wrappers operate directly
on IR functions and on the edge-split graph used for edge dominance.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.analysis.graph import DiGraph, edge_split_graph

Node = Hashable


class DominatorTree:
    """The immediate-dominator relation for nodes reachable from the root.

    ``dominates``, ``strictly_dominates`` and ``depth`` take O(1) time.  They
    read a DFS numbering of the tree: every node gets its preorder index
    ``pre`` and the end ``end`` of its subtree's preorder range, so

        ``a`` dominates ``b``  iff  ``pre[a] <= pre[b] < end[a]``

    and the nodes ``a`` dominates are the preorder slice ``[pre[a], end[a])``.
    The numbering (with each node's depth) is built in one O(n) pass on the
    first such query, so a tree read only through ``idom``, ``children`` or
    ``dominators_of`` never pays for it.
    """

    def __init__(self, root: Node, idom: Dict[Node, Optional[Node]], rpo_index: Dict[Node, int]):
        self.root = root
        self._idom = idom
        self._rpo_index = rpo_index
        self._children: Dict[Node, List[Node]] = {}
        for node, parent in idom.items():
            if parent is not None and node != root:
                self._children.setdefault(parent, []).append(node)
        #: ``(pre, end, depth, preorder)``: ``pre`` maps a node to its
        #: preorder index; ``end`` and ``depth`` are indexed by it.
        self._numbering: Optional[Tuple[Dict[Node, int], List[int], List[int], List[Node]]] = None

    def _number(self) -> Tuple[Dict[Node, int], List[int], List[int], List[Node]]:
        children = self._children
        preorder: List[Node] = []
        depth: List[int] = []
        stack: List[Tuple[Node, int]] = [(self.root, 0)]
        while stack:
            node, level = stack.pop()
            preorder.append(node)
            depth.append(level)
            # Reversed, so children keep their order in the preorder.
            stack.extend((child, level + 1) for child in reversed(children.get(node, ())))
        pre = {node: index for index, node in enumerate(preorder)}
        end = list(range(1, len(preorder) + 1))
        idom = self._idom
        for index in range(len(preorder) - 1, 0, -1):
            parent = pre[idom[preorder[index]]]
            if end[index] > end[parent]:
                end[parent] = end[index]
        self._numbering = (pre, end, depth, preorder)
        return self._numbering

    # -- queries ------------------------------------------------------------------

    @property
    def nodes(self) -> List[Node]:
        return list(self._idom.keys())

    def idom(self, node: Node) -> Optional[Node]:
        """Immediate dominator of ``node`` (``None`` for the root)."""

        if node == self.root:
            return None
        return self._idom[node]

    def children(self, node: Node) -> List[Node]:
        return list(self._children.get(node, []))

    def dominates(self, a: Node, b: Node) -> bool:
        """True when ``a`` dominates ``b`` (reflexive).

        ``b`` outside the tree raises ``KeyError`` unless it equals ``a``;
        ``a`` outside the tree dominates nothing but itself.
        """

        if a == b:
            return True
        pre, end, _depth, _order = self._numbering or self._number()
        index = pre[b]
        start = pre.get(a)
        return start is not None and start <= index < end[start]

    def strictly_dominates(self, a: Node, b: Node) -> bool:
        return a != b and self.dominates(a, b)

    def dominators_of(self, node: Node) -> List[Node]:
        """All dominators of ``node`` from the node itself up to the root."""

        result = [node]
        current: Optional[Node] = node
        while current != self.root:
            current = self._idom[current]
            if current is None:
                break
            result.append(current)
        return result

    def depth(self, node: Node) -> int:
        """Edges between ``node`` and the root; ``KeyError`` outside the tree."""

        pre, _end, depth, _order = self._numbering or self._number()
        return depth[pre[node]]

    def interval(self, node: Node) -> Tuple[int, int]:
        """The half-open preorder range of the nodes ``node`` dominates."""

        pre, end, _depth, _order = self._numbering or self._number()
        start = pre[node]
        return start, end[start]

    def preorder_index(self, node: Node) -> int:
        """Position of ``node`` in the tree's preorder (the root is 0)."""

        pre = (self._numbering or self._number())[0]
        return pre[node]

    def subtree(self, node: Node) -> List[Node]:
        """The nodes ``node`` dominates (itself first), in preorder."""

        start, stop = self.interval(node)
        return self._numbering[3][start:stop]

    def __contains__(self, node: Node) -> bool:
        return node in self._idom


def compute_dominators_of_graph(graph: DiGraph, entry: Node) -> DominatorTree:
    """Cooper–Harvey–Kennedy iterative dominators for nodes reachable from ``entry``."""

    rpo = graph.reverse_postorder(entry)
    rpo_index = {node: i for i, node in enumerate(rpo)}
    idom: Dict[Node, Optional[Node]] = {entry: entry}

    def intersect(a: Node, b: Node) -> Node:
        while a != b:
            while rpo_index[a] > rpo_index[b]:
                a = idom[a]
            while rpo_index[b] > rpo_index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in rpo:
            if node == entry:
                continue
            processed_preds = [
                p for p in graph.predecessors(node) if p in idom and p in rpo_index
            ]
            if not processed_preds:
                continue
            new_idom = processed_preds[0]
            for pred in processed_preds[1:]:
                new_idom = intersect(new_idom, pred)
            if idom.get(node) != new_idom:
                idom[node] = new_idom
                changed = True

    idom[entry] = None
    return DominatorTree(entry, idom, rpo_index)


def compute_dominators(function) -> DominatorTree:
    """Dominator tree of a function's CFG, keyed by block label.

    Built once per CFG shape: the function's CFG snapshot keeps it, and
    every caller until the CFG changes gets the same tree.
    """

    return function.cfg().dominators()


def compute_postdominators(function) -> DominatorTree:
    """Post-dominator tree of a function's CFG (dominators of the reverse CFG)."""

    return compute_dominators_of_graph(function.cfg().graph.reversed(), function.exit.label)


class EdgeDominance:
    """Dominance and post-dominance between CFG *edges*.

    Edge dominance is computed on the edge-split graph: every CFG edge
    becomes a node spliced between its endpoints, and ordinary node dominance
    on that graph gives the edge relation.  The virtual procedure entry and
    exit edges participate, so "procedure entry dominates every edge" and
    "procedure exit post-dominates every edge" hold as expected.
    """

    def __init__(self, function):
        graph, entry_node, exit_node, edge_nodes = edge_split_graph(function)
        self._edge_nodes: Dict[Tuple[str, str], Node] = dict(edge_nodes)
        self._edge_nodes[("__entry__", function.entry.label)] = entry_node
        self._edge_nodes[(function.exit.label, "__exit__")] = exit_node
        self._dom = compute_dominators_of_graph(graph, entry_node)
        self._postdom = compute_dominators_of_graph(graph.reversed(), exit_node)

    @property
    def dominators(self) -> DominatorTree:
        """Dominator tree of the edge-split graph."""

        return self._dom

    @property
    def postdominators(self) -> DominatorTree:
        """Post-dominator tree of the edge-split graph."""

        return self._postdom

    def node_for(self, edge_key: Tuple[str, str]) -> Node:
        return self._edge_nodes[edge_key]

    def depth(self, edge_key: Tuple[str, str]) -> int:
        """Depth of the edge in the edge dominator tree (the virtual entry edge is 0)."""

        return self._dom.depth(self.node_for(edge_key))

    def block_node(self, label: str) -> Node:
        return ("block", label)

    def edge_dominates_edge(self, a: Tuple[str, str], b: Tuple[str, str]) -> bool:
        return self._dom.dominates(self.node_for(a), self.node_for(b))

    def edge_postdominates_edge(self, a: Tuple[str, str], b: Tuple[str, str]) -> bool:
        return self._postdom.dominates(self.node_for(a), self.node_for(b))

    def edge_dominates_block(self, edge_key: Tuple[str, str], label: str) -> bool:
        return self._dom.dominates(self.node_for(edge_key), self.block_node(label))

    def edge_postdominates_block(self, edge_key: Tuple[str, str], label: str) -> bool:
        return self._postdom.dominates(self.node_for(edge_key), self.block_node(label))
