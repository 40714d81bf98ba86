"""Tests for SESE regions and the program structure tree."""

from hypothesis import given, strategies as st

from repro.analysis.dominance import EdgeDominance
from repro.analysis.pst import Region, _nest, build_pst
from repro.analysis.sese import find_canonical_regions, find_maximal_regions
from repro.workloads.programs import diamond_function, loop_function, paper_example

from tests.conftest import any_functions, generated_procedures


def reference_parent(region, by_size, root):
    """The O(R^2) rule: the smallest region strictly containing ``region``."""

    candidates = [o for o in by_size if o is not region and region.blocks < o.blocks]
    return min(candidates, key=lambda r: len(r.blocks)) if candidates else root


def reference_smallest_containing(regions, label):
    best = regions[0]
    for region in regions:
        if label in region.blocks and len(region.blocks) < len(best.blocks):
            best = region
    return best


class TestSESERegions:
    def test_paper_example_maximal_regions(self):
        function = paper_example().function
        regions = {(r.entry_edge, r.exit_edge): r for r in find_maximal_regions(function)}
        # The four regions the paper names (Region 4 is the procedure itself).
        assert (("B", "C"), ("F", "H")) in regions
        assert (("A", "B"), ("J", "P")) in regions
        assert (("A", "I"), ("O", "P")) in regions
        assert regions[(("B", "C"), ("F", "H"))].blocks == frozenset("CDEF")
        assert regions[(("A", "B"), ("J", "P"))].blocks == frozenset("BCDEFGHJ")
        assert regions[(("A", "I"), ("O", "P"))].blocks == frozenset("IKLMNO")

    def test_diamond_regions_are_the_two_arms(self):
        regions = find_maximal_regions(diamond_function())
        blocks = {r.blocks for r in regions}
        assert frozenset({"then"}) in blocks
        assert frozenset({"else_"}) in blocks

    def test_loop_regions(self):
        # The loop body is its own region (delimited by the back edge), and
        # the maximal region between procedure entry and the exit jump wraps
        # the whole loop; hoisting spill code to its boundaries is what keeps
        # save/restore code out of loops.
        maximal = find_maximal_regions(loop_function())
        assert any(r.blocks == frozenset({"body"}) for r in maximal)
        assert any(r.blocks == frozenset({"header", "body", "after"}) for r in maximal)
        canonical = find_canonical_regions(loop_function())
        assert any(r.blocks == frozenset({"header", "body"}) for r in canonical)

    def test_canonical_regions_refine_maximal_regions(self):
        function = paper_example().function
        canonical = find_canonical_regions(function)
        maximal = find_maximal_regions(function)
        assert len(canonical) >= len(maximal)
        # Every maximal region's block set is a union of canonical block sets
        # from the same class; at minimum it must contain one of them.
        for region in maximal:
            assert any(c.blocks <= region.blocks for c in canonical)

    def test_single_block_function_has_no_regions(self):
        from repro.ir.builder import FunctionBuilder

        builder = FunctionBuilder("tiny")
        builder.block("entry")
        builder.ret()
        assert find_maximal_regions(builder.build()) == []

    @given(generated_procedures(max_segments=4))
    def test_region_boundaries_satisfy_dominance_conditions(self, procedure):
        function = procedure.function
        dominance = EdgeDominance(function)
        for region in find_maximal_regions(function):
            assert dominance.edge_dominates_edge(region.entry_edge, region.exit_edge)
            assert dominance.edge_postdominates_edge(region.exit_edge, region.entry_edge)
            for label in region.blocks:
                assert dominance.edge_dominates_block(region.entry_edge, label)
                assert dominance.edge_postdominates_block(region.exit_edge, label)

    @given(generated_procedures(max_segments=4))
    def test_regions_never_partially_overlap(self, procedure):
        regions = find_maximal_regions(procedure.function)
        for a in regions:
            for b in regions:
                intersection = a.blocks & b.blocks
                assert not intersection or a.blocks <= b.blocks or b.blocks <= a.blocks


class TestProgramStructureTree:
    def test_root_covers_whole_procedure(self):
        example = paper_example()
        pst = build_pst(example.function)
        assert pst.root.is_root
        assert pst.root.blocks == frozenset(example.function.block_labels)
        assert pst.root.entry_edge == ("__entry__", "A")
        assert pst.root.exit_edge == ("P", "__exit__")

    def test_nesting_of_paper_regions(self):
        pst = build_pst(paper_example().function)
        by_blocks = {r.blocks: r for r in pst.regions()}
        region1 = by_blocks[frozenset("CDEF")]
        region2 = by_blocks[frozenset("BCDEFGHJ")]
        region3 = by_blocks[frozenset("IKLMNO")]
        assert region1.parent is region2
        assert region2.parent is pst.root
        assert region3.parent is pst.root

    def test_topological_order_visits_children_first(self):
        pst = build_pst(paper_example().function)
        order = pst.topological_order()
        positions = {id(region): index for index, region in enumerate(order)}
        for region in pst.regions():
            for child in region.children:
                assert positions[id(child)] < positions[id(region)]
        assert order[-1] is pst.root

    def test_smallest_region_containing(self):
        pst = build_pst(paper_example().function)
        assert pst.smallest_region_containing("E").blocks == frozenset({"E"})
        assert pst.smallest_region_containing("C").blocks == frozenset("CDEF")
        assert pst.smallest_region_containing("A") is pst.root

    def test_canonical_pst_has_at_least_as_many_regions(self):
        function = paper_example().function
        assert build_pst(function, maximal=False).region_count() >= build_pst(function).region_count()

    @given(generated_procedures(max_segments=4))
    def test_every_region_nested_in_its_parent(self, procedure):
        pst = build_pst(procedure.function)
        for region in pst.interior_regions():
            assert region.parent is not None
            assert region.blocks <= region.parent.blocks
            assert region in region.parent.children

    @given(generated_procedures(max_segments=4))
    def test_depth_is_consistent(self, procedure):
        pst = build_pst(procedure.function)
        assert pst.root.depth == 0
        for region in pst.interior_regions():
            assert region.depth == region.parent.depth + 1


class TestNestingMatchesReference:
    """Nesting and innermost-region lookups equal the O(R^2) scans they replaced."""

    @given(any_functions(), st.booleans())
    def test_build_pst(self, function, maximal):
        pst = build_pst(function, maximal=maximal)
        regions = pst.regions()
        by_size = regions[1:]
        for region in by_size:
            assert region.parent is reference_parent(region, by_size, pst.root)
        for region in regions:
            assert region.children == [o for o in by_size if o.parent is region]
        for label in function.block_labels + ["not-a-block"]:
            assert pst.smallest_region_containing(label) is (
                reference_smallest_containing(regions, label)
            )

    @given(
        st.lists(
            st.frozensets(st.sampled_from("abcdefgh"), min_size=1, max_size=7),
            max_size=8,
        )
    )
    def test_any_family_of_block_sets(self, block_sets):
        # Duplicates and straddling sets included: SESE regions never
        # straddle, but the nesting rule is defined for any family.
        root = Region(0, ("entry", "a"), ("h", "exit"), frozenset("abcdefgh"), is_root=True)
        regions = [
            Region(i + 1, ("x", str(i)), ("y", str(i)), blocks)
            for i, blocks in enumerate(block_sets)
        ]
        by_size = sorted(regions, key=lambda r: len(r.blocks))
        innermost = _nest(root, by_size)
        for region in by_size:
            assert region.parent is reference_parent(region, by_size, root)
        for region in [root] + by_size:
            assert region.children == [o for o in by_size if o.parent is region]
        for label in "abcdefgh":
            assert innermost[label] is reference_smallest_containing([root] + by_size, label)
