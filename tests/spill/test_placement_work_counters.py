"""Deterministic work counters for the compile pipeline.

Wall-clock gates are noisy; call counts are not.  These tests wrap the same
entry points the benchmark's span tracer wraps (``place_hierarchical`` as
the pipeline imports it, ``build_pst`` as ``repro.spill.hierarchical``
imports it, ``Function.cfg``, ``DominatorTree.dominates`` and the
``DominatorTree``/``LoopForest`` constructors) and compare the counts at
two sizes of the large-procedure ladder:

* ``Function.cfg()`` runs a fixed number of times per placement, not once
  per region, and a fixed number of times per generated procedure, not once
  per block: each fetch revalidates the snapshot in O(blocks);
* the dominance queries PST construction makes grow no faster than the
  procedure's block count;
* one compile builds one loop forest and three dominator trees (the CFG's,
  shared by register allocation and Chow shrink-wrapping through the CFG
  snapshot, plus the edge-split graph's dominators and post-dominators for
  the PST), and compiling the same input again builds them all again.

The snapshot is the cache behind those counts, so it must see an in-place
branch retarget; the last test checks that it does.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import pytest

import repro.pipeline.compiler as compiler
import repro.spill.hierarchical as hierarchical
from repro.analysis.dominance import DominatorTree, compute_dominators
from repro.analysis.loops import LoopForest, compute_loop_forest, is_reducible
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function, reachable_blocks
from repro.ir.values import Label
from repro.pipeline.compiler import compile_procedure
from repro.workloads.generator import GeneratorConfig, generate_procedure

SMALL, LARGE = 48, 216
#: Allowed growth of dominance queries per block between the two rungs.
GROWTH_SLACK = 1.25
#: ``Function.cfg()`` fetches allowed while generating one procedure.
GENERATE_CFG_FETCHES = 8


def _count(monkeypatch, owner, name, counts, key, active):
    original = owner.__dict__[name]

    def wrapper(*args, **kwargs):
        if active[key]:
            counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def _scope(monkeypatch, module, name, active, keys):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        for key in keys:
            active[key] += 1
        try:
            return original(*args, **kwargs)
        finally:
            for key in keys:
                active[key] -= 1

    monkeypatch.setattr(module, name, wrapper)


def _work(n: int):
    """``(block count, counts)`` for generating and twice compiling ladder rung ``n``.

    Keys: ``generate_cfg`` (``Function.cfg()`` fetches while generating),
    ``cfg`` (fetches inside ``place_hierarchical``), ``dominates`` and
    ``dominators_of`` (queries inside ``build_pst``), and
    ``dominator_trees``/``loop_forests`` (constructions in the first
    compile; ``*_again`` in the second compile of the same input).
    """

    counts: Counter = Counter()
    active: Counter = Counter()
    with pytest.MonkeyPatch.context() as monkeypatch:
        _count(monkeypatch, Function, "cfg", counts, "generate_cfg", active)
        active["generate_cfg"] += 1
        procedure = generate_procedure(GeneratorConfig(num_segments=n, seed=n))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _scope(monkeypatch, compiler, "place_hierarchical", active, ("cfg",))
        _scope(monkeypatch, hierarchical, "build_pst", active, ("dominates", "dominators_of"))
        _count(monkeypatch, Function, "cfg", counts, "cfg", active)
        _count(monkeypatch, DominatorTree, "dominates", counts, "dominates", active)
        _count(monkeypatch, DominatorTree, "dominators_of", counts, "dominators_of", active)
        _count(monkeypatch, DominatorTree, "__init__", counts, "dominator_trees", active)
        _count(monkeypatch, LoopForest, "__init__", counts, "loop_forests", active)
        active["dominator_trees"] += 1
        active["loop_forests"] += 1
        compile_procedure(procedure)
        active["dominator_trees"] -= 1
        active["loop_forests"] -= 1
    with pytest.MonkeyPatch.context() as monkeypatch:
        _count(monkeypatch, DominatorTree, "__init__", counts, "dominator_trees_again", active)
        _count(monkeypatch, LoopForest, "__init__", counts, "loop_forests_again", active)
        active["dominator_trees_again"] += 1
        active["loop_forests_again"] += 1
        compile_procedure(procedure)
    return len(procedure.function), counts


@pytest.fixture(scope="module")
def rungs():
    return _work(SMALL), _work(LARGE)


def test_cfg_fetches_per_placement_do_not_grow_with_regions(rungs):
    (_, small), (_, large) = rungs
    assert small["cfg"] > 0
    assert large["cfg"] == small["cfg"]


def test_pst_dominance_queries_grow_with_block_count(rungs):
    (small_blocks, small), (large_blocks, large) = rungs
    small_queries = small["dominates"] + small["dominators_of"]
    large_queries = large["dominates"] + large["dominators_of"]
    assert small_queries > 0
    growth = large_queries / small_queries
    assert growth <= GROWTH_SLACK * large_blocks / small_blocks


def test_cfg_fetches_per_generated_procedure_do_not_grow_with_blocks(rungs):
    (_, small), (_, large) = rungs
    assert 0 < small["generate_cfg"] <= GENERATE_CFG_FETCHES
    assert 0 < large["generate_cfg"] <= GENERATE_CFG_FETCHES


def test_one_compile_builds_one_loop_forest_and_three_dominator_trees(rungs):
    for _, counts in rungs:
        assert counts["loop_forests"] == 1
        assert counts["dominator_trees"] == 3


def test_recompiling_the_same_input_rebuilds_the_same_analyses(rungs):
    # Nothing a compile computes may stick to the caller's procedure object.
    for _, counts in rungs:
        assert counts["loop_forests_again"] == counts["loop_forests"]
        assert counts["dominator_trees_again"] == counts["dominator_trees"]


def _retargetable():
    """A reducible loop ``a <-> b`` plus a block ``island`` nothing reaches.

    ``entry`` branches to ``exit``; retargeting that branch at ``island``
    gives the cycle a second entry (``island -> b``): the CFG turns
    irreducible, loses its natural loop, ``b``'s immediate dominator moves
    from ``a`` to ``entry``, and ``island`` becomes reachable.
    """

    builder = FunctionBuilder("retarget")
    cond = builder.new_vreg()
    builder.block("entry")
    builder.const(1, cond)
    builder.branch(cond, "exit")
    builder.block("a")
    builder.block("b")
    builder.branch(cond, "a")
    builder.block("exit")
    builder.ret()
    builder.block("island")
    builder.jump("b")
    return builder.build()


def test_in_place_retarget_reaches_every_cached_analysis():
    function = _retargetable()
    assert compute_dominators(function).idom("b") == "a"
    assert [loop.header for loop in compute_loop_forest(function).loops] == ["a"]
    assert is_reducible(function)
    assert reachable_blocks(function) == {"entry", "a", "b", "exit"}

    function.block("entry").instructions[-1].target = Label("island")

    assert compute_dominators(function).idom("b") == "entry"
    assert compute_loop_forest(function).loops == []
    assert not is_reducible(function)
    assert reachable_blocks(function) == {"entry", "a", "b", "exit", "island"}
