"""Deterministic work counters for hierarchical placement.

Wall-clock gates are noisy; call counts are not.  These tests wrap the same
entry points the benchmark's span tracer wraps (``place_hierarchical`` as
the pipeline imports it, ``build_pst`` as ``repro.spill.hierarchical``
imports it, ``Function.cfg``, ``DominatorTree.dominates``) and compare the
counts at two sizes of the large-procedure ladder:

* ``Function.cfg()`` runs a fixed number of times per placement, not once
  per region: each fetch revalidates the snapshot in O(blocks);
* the dominance queries PST construction makes grow no faster than the
  procedure's block count.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import pytest

import repro.pipeline.compiler as compiler
import repro.spill.hierarchical as hierarchical
from repro.analysis.dominance import DominatorTree
from repro.ir.function import Function
from repro.pipeline.compiler import compile_procedure
from repro.workloads.generator import GeneratorConfig, generate_procedure

SMALL, LARGE = 48, 216
#: Allowed growth of dominance queries per block between the two rungs.
GROWTH_SLACK = 1.25


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
    """``(block count, counts)`` for one cold compile of ladder rung ``n``."""

    procedure = generate_procedure(GeneratorConfig(num_segments=n, seed=n))
    counts: Counter = Counter()
    active: Counter = Counter()
    with pytest.MonkeyPatch.context() as monkeypatch:
        _scope(monkeypatch, compiler, "place_hierarchical", active, ("cfg",))
        _scope(monkeypatch, hierarchical, "build_pst", active, ("dominates", "dominators_of"))
        _count(monkeypatch, Function, "cfg", counts, "cfg", active)
        _count(monkeypatch, DominatorTree, "dominates", counts, "dominates", active)
        _count(monkeypatch, DominatorTree, "dominators_of", counts, "dominators_of", active)
        compile_procedure(procedure, techniques=("optimized",), verify=False)
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
