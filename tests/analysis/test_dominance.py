"""Tests for dominators, post-dominators and edge dominance."""

import pytest
from hypothesis import given

from repro.analysis.dominance import (
    EdgeDominance,
    compute_dominators,
    compute_dominators_of_graph,
    compute_postdominators,
)
from repro.analysis.graph import DiGraph, function_cfg
from repro.analysis.sese import (
    _region_blocks,
    compute_edge_classes,
    find_canonical_regions,
    find_maximal_regions,
)
from repro.workloads.programs import diamond_function, loop_function, paper_example

from tests.conftest import any_functions, generated_procedures


def naive_dominates(tree, a, b):
    """The idom-chain walk: ``a`` dominates ``b`` iff it lies on ``b``'s chain."""

    node = b
    while node is not None:
        if node == a:
            return True
        node = tree.idom(node)
    return False


def naive_depth(tree, node):
    depth = 0
    while tree.idom(node) is not None:
        node = tree.idom(node)
        depth += 1
    return depth


def assert_matches_chain_walk(tree):
    nodes = tree.nodes
    for b in nodes:
        assert tree.depth(b) == naive_depth(tree, b)
        assert tree.depth(b) == len(tree.dominators_of(b)) - 1
        for a in nodes:
            expected = naive_dominates(tree, a, b)
            assert tree.dominates(a, b) == expected, (a, b)
            assert tree.strictly_dominates(a, b) == (expected and a != b), (a, b)


def old_region_blocks(function, dominance, entry_edge, exit_edge):
    """The scan-every-block definition of a region's blocks."""

    return frozenset(
        label
        for label in function.block_labels
        if dominance.edge_dominates_block(entry_edge, label)
        and dominance.edge_postdominates_block(exit_edge, label)
    )


class TestDominators:
    def test_diamond_idoms(self):
        dom = compute_dominators(diamond_function())
        assert dom.idom("entry") is None
        assert dom.idom("then") == "entry"
        assert dom.idom("else_") == "entry"
        assert dom.idom("merge") == "entry"

    def test_loop_idoms(self):
        dom = compute_dominators(loop_function())
        assert dom.idom("header") == "entry"
        assert dom.idom("body") == "header"
        assert dom.idom("exit") == "after"

    def test_dominates_is_reflexive_and_transitive(self):
        dom = compute_dominators(paper_example().function)
        assert dom.dominates("A", "A")
        assert dom.dominates("A", "P")
        assert dom.dominates("B", "C") and dom.dominates("C", "D")
        assert dom.dominates("B", "D")

    def test_strict_dominance_excludes_self(self):
        dom = compute_dominators(diamond_function())
        assert not dom.strictly_dominates("entry", "entry")
        assert dom.strictly_dominates("entry", "merge")

    def test_dominators_of_lists_chain_to_root(self):
        dom = compute_dominators(paper_example().function)
        chain = dom.dominators_of("E")
        assert chain[0] == "E"
        assert chain[-1] == "A"
        assert "D" in chain and "C" in chain

    def test_children_partition_nodes(self):
        dom = compute_dominators(paper_example().function)
        seen = set()
        stack = [dom.root]
        while stack:
            node = stack.pop()
            assert node not in seen
            seen.add(node)
            stack.extend(dom.children(node))
        assert seen == set(paper_example().function.block_labels)

    def test_postdominators_of_paper_example(self):
        postdom = compute_postdominators(paper_example().function)
        assert postdom.dominates("P", "A")
        assert postdom.dominates("F", "D")
        assert postdom.dominates("F", "C")
        assert not postdom.dominates("E", "D")

    def test_graph_level_api_with_unreachable_node(self):
        graph = DiGraph()
        graph.add_edge("a", "b")
        graph.add_node("island")
        dom = compute_dominators_of_graph(graph, "a")
        assert dom.idom("b") == "a"
        assert "island" not in dom
        # A node outside the tree: it dominates only itself, and asking
        # whether anything else dominates it, or for its depth, is a KeyError.
        assert dom.dominates("island", "island")
        assert not dom.strictly_dominates("island", "island")
        assert not dom.dominates("island", "b")
        assert not dom.strictly_dominates("island", "a")
        with pytest.raises(KeyError):
            dom.dominates("a", "island")
        with pytest.raises(KeyError):
            dom.strictly_dominates("b", "island")
        with pytest.raises(KeyError):
            dom.depth("island")
        with pytest.raises(KeyError):
            dom.dominators_of("island")

    @given(generated_procedures(max_segments=5))
    def test_entry_dominates_everything(self, procedure):
        function = procedure.function
        dom = compute_dominators(function)
        for label in function.block_labels:
            assert dom.dominates(function.entry.label, label)

    @given(generated_procedures(max_segments=5))
    def test_exit_postdominates_everything(self, procedure):
        function = procedure.function
        postdom = compute_postdominators(function)
        for label in function.block_labels:
            assert postdom.dominates(function.exit.label, label)

    @given(generated_procedures(max_segments=4))
    def test_idom_is_a_strict_dominator(self, procedure):
        function = procedure.function
        dom = compute_dominators(function)
        for label in function.block_labels:
            parent = dom.idom(label)
            if parent is not None:
                assert dom.strictly_dominates(parent, label)


class TestEdgeDominance:
    def test_paper_example_region_boundaries(self):
        example = paper_example()
        edges = EdgeDominance(example.function)
        assert edges.edge_dominates_edge(("B", "C"), ("F", "H"))
        assert edges.edge_postdominates_edge(("F", "H"), ("B", "C"))
        assert edges.edge_dominates_edge(("A", "I"), ("O", "P"))
        assert not edges.edge_dominates_edge(("C", "D"), ("F", "H"))

    def test_edge_vs_block_dominance(self):
        example = paper_example()
        edges = EdgeDominance(example.function)
        assert edges.edge_dominates_block(("B", "C"), "E")
        assert edges.edge_postdominates_block(("F", "H"), "E")
        assert not edges.edge_dominates_block(("C", "D"), "F")

    def test_virtual_entry_edge_dominates_all_blocks(self):
        example = paper_example()
        edges = EdgeDominance(example.function)
        for label in example.function.block_labels:
            assert edges.edge_dominates_block(("__entry__", "A"), label)


class TestIntervalNumbering:
    """The O(1) interval queries agree with a walk up the idom chain."""

    @given(any_functions())
    def test_dominator_tree(self, function):
        assert_matches_chain_walk(compute_dominators(function))

    @given(any_functions())
    def test_postdominator_tree(self, function):
        assert_matches_chain_walk(compute_postdominators(function))

    @given(any_functions())
    def test_edge_split_graph(self, function):
        edges = EdgeDominance(function)
        assert_matches_chain_walk(edges.dominators)
        assert_matches_chain_walk(edges.postdominators)

    @given(any_functions())
    def test_subtree_is_the_dominated_set(self, function):
        tree = compute_dominators(function)
        for a in tree.nodes:
            subtree = tree.subtree(a)
            assert subtree[0] == a
            assert set(subtree) == {b for b in tree.nodes if naive_dominates(tree, a, b)}
            low, high = tree.interval(a)
            assert high - low == len(subtree)
            assert [tree.preorder_index(b) for b in subtree] == list(range(low, high))

    def test_numbering_is_built_on_first_query(self):
        tree = compute_dominators(paper_example().function)
        assert tree._numbering is None
        tree.idom("B"), tree.children("A"), tree.dominators_of("E")
        assert tree._numbering is None
        assert tree.dominates("A", "E")
        assert tree._numbering is not None

    @given(any_functions())
    def test_edge_depth_is_the_dominator_tree_depth(self, function):
        edges = EdgeDominance(function)
        for edge in function.edges():
            node = edges.node_for(edge.key)
            assert edges.depth(edge.key) == naive_depth(edges.dominators, node)


class TestRegionBlocks:
    """``_region_blocks`` equals the scan over every block it replaced."""

    @given(any_functions())
    def test_every_region(self, function):
        if len(function) < 2:
            return
        dominance = EdgeDominance(function)
        for region in find_maximal_regions(function) + find_canonical_regions(function):
            blocks = _region_blocks(dominance, region.entry_edge, region.exit_edge)
            assert blocks == region.blocks
            assert blocks == old_region_blocks(
                function, dominance, region.entry_edge, region.exit_edge
            )

    @given(any_functions())
    def test_every_dominating_pair_of_class_edges(self, function):
        if len(function) < 2:
            return
        dominance = EdgeDominance(function)
        by_class = {}
        for edge, class_id in compute_edge_classes(function).items():
            by_class.setdefault(class_id, []).append(edge)
        for edges in by_class.values():
            for entry_edge in edges:
                for exit_edge in edges:
                    if dominance.edge_dominates_edge(entry_edge, exit_edge):
                        assert _region_blocks(dominance, entry_edge, exit_edge) == (
                            old_region_blocks(function, dominance, entry_edge, exit_edge)
                        )
