"""Byte-level pin of the PST and hierarchical placement on large procedures.

The existing pins cover the paper suite and the scenario families, whose
procedures stay under a few hundred instructions.  This one covers the
size-sweep procedures (``GeneratorConfig(num_segments=n, seed=n)``), where
PST construction and the hierarchical traversal do most of their work.  For
each size, region flavour (maximal, canonical) and cost model it hashes:

* the PST: every region's entry/exit edges, sorted blocks and parent id,
  plus the topological traversal order;
* the hierarchical result: ``placement.describe()``, the dynamic overhead,
  the fallback registers and the full ``RegionDecision`` trace (costs as
  exact float hex).

A change to the region construction, nesting or traversal that alters any
output byte changes a digest.  To re-pin after an intended output change,
run this file with ``-s`` and ``REPRO_PRINT_PINS=1`` and copy the printed
table.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.analysis.pst import build_pst
from repro.regalloc.allocator import allocate_registers
from repro.spill.hierarchical import place_hierarchical
from repro.spill.overhead import placement_dynamic_overhead
from repro.target.registry import resolve_target
from repro.workloads.generator import GeneratorConfig, generate_procedure

SIZES = (48, 108, 216)
COST_MODELS = ("execution_count", "jump_edge")
FLAVOURS = (("maximal", True), ("canonical", False))

#: (num_segments, flavour) -> SHA-256 of the PST.
PST_PINS = {
    (48, "maximal"): "3d90ecd6a32fd4231be87528de8a6761d8d9949a3832efa0561fbceac21fed6b",
    (48, "canonical"): "ab9adf882fd45d3850b42488e83df7e3d70129affe2f252d5d3e23b019070331",
    (108, "maximal"): "2d535299e10fc7c8825ddf27459457fa2018fd647075cd2542d6713ba372f93d",
    (108, "canonical"): "f6b52a0a367d595b78a14b7dfe7f0bd10b9472d566771f7f5cde75a467d05b29",
    (216, "maximal"): "9a9dab15911f39ca46c271b1fd1ef5e1fbfa8aa89d1b9e7d8c8d947ac096994b",
    (216, "canonical"): "99ddcc4f2b2ba4188ec894b327c00e2638dfc778d765698d16486401eb501909",
}

#: (num_segments, flavour, cost model) -> SHA-256 of the hierarchical result.
PLACEMENT_PINS = {
    (48, "maximal", "execution_count"): "d09798b312b10114ef88a230b58899e31613e71777c4d06b9acee5916f56625a",
    (48, "maximal", "jump_edge"): "f36475877943fa1887555a94e06083747138f82986a96fd965763f337e98416c",
    (48, "canonical", "execution_count"): "d09798b312b10114ef88a230b58899e31613e71777c4d06b9acee5916f56625a",
    (48, "canonical", "jump_edge"): "f36475877943fa1887555a94e06083747138f82986a96fd965763f337e98416c",
    (108, "maximal", "execution_count"): "caaf9caa788362d1956a2296e974ec874829261ad95e989d00472e3105d42d8c",
    (108, "maximal", "jump_edge"): "6d75eece5ee6fdc4d20ce99d6c40d7fb355493f2f570e171e953832458cf1dec",
    (108, "canonical", "execution_count"): "caaf9caa788362d1956a2296e974ec874829261ad95e989d00472e3105d42d8c",
    (108, "canonical", "jump_edge"): "6d75eece5ee6fdc4d20ce99d6c40d7fb355493f2f570e171e953832458cf1dec",
    (216, "maximal", "execution_count"): "1505ce66f7b4351a260c17e0c5bbcc3c2e3feef3c1e5ed94ad85c825a09ae7ff",
    (216, "maximal", "jump_edge"): "5db17bcc4a427049e539575e7e57adb2ac9db1c1233f498105838dca40a31ef1",
    (216, "canonical", "execution_count"): "1505ce66f7b4351a260c17e0c5bbcc3c2e3feef3c1e5ed94ad85c825a09ae7ff",
    (216, "canonical", "jump_edge"): "5db17bcc4a427049e539575e7e57adb2ac9db1c1233f498105838dca40a31ef1",
}


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def pst_lines(pst):
    lines = []
    for region in pst.regions():
        parent = region.parent.identifier if region.parent is not None else None
        lines.append(
            f"{region.identifier} {region.entry_edge} {region.exit_edge} "
            f"parent={parent} blocks={sorted(region.blocks)}"
        )
    lines.append("order " + " ".join(str(r.identifier) for r in pst.topological_order()))
    return lines


def result_lines(result, function, profile, machine):
    placement = result.placement
    overhead = placement_dynamic_overhead(function, profile, placement, machine)
    lines = placement.describe().splitlines()
    lines.append(
        "overhead "
        + " ".join(
            float(v).hex()
            for v in (overhead.save_count, overhead.restore_count, overhead.jump_count)
        )
        + f" {overhead.num_jump_blocks}"
    )
    lines.append("fallback " + " ".join(r.name for r in placement.fallback_registers))
    for d in result.decisions:
        lines.append(
            f"decision {d.region_id} {d.register.name} {d.contained_sets} "
            f"{d.contained_cost.hex()} {d.boundary_cost.hex()} {d.replaced}"
        )
    return lines


@pytest.fixture(scope="module")
def allocated():
    """``num_segments -> (allocated function, usage, profile, machine)``."""

    machine = resolve_target(None)
    out = {}
    for n in SIZES:
        procedure = generate_procedure(GeneratorConfig(num_segments=n, seed=n))
        allocation = allocate_registers(procedure.function, machine, procedure.profile)
        out[n] = (allocation.function, allocation.usage, procedure.profile, machine)
    return out


def _compute(allocated):
    psts, placements = {}, {}
    for n in SIZES:
        function, usage, profile, machine = allocated[n]
        for flavour, maximal in FLAVOURS:
            pst = build_pst(function, maximal=maximal)
            psts[(n, flavour)] = _digest(pst_lines(pst))
            for model in COST_MODELS:
                result = place_hierarchical(
                    function, usage, profile, cost_model=model,
                    maximal_regions=maximal, machine=machine,
                )
                placements[(n, flavour, model)] = _digest(
                    result_lines(result, function, profile, machine)
                )
    return psts, placements


@pytest.fixture(scope="module")
def digests(allocated):
    psts, placements = _compute(allocated)
    if os.environ.get("REPRO_PRINT_PINS"):
        for key, value in sorted(psts.items()):
            print(f"    {key!r}: {value!r},")
        for key, value in sorted(placements.items()):
            print(f"    {key!r}: {value!r},")
    return psts, placements


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("flavour", [f for f, _ in FLAVOURS])
def test_pst_pin(digests, n, flavour):
    assert digests[0][(n, flavour)] == PST_PINS[(n, flavour)]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("flavour", [f for f, _ in FLAVOURS])
@pytest.mark.parametrize("model", COST_MODELS)
def test_hierarchical_pin(digests, n, flavour, model):
    assert digests[1][(n, flavour, model)] == PLACEMENT_PINS[(n, flavour, model)]
