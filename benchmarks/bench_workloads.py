#!/usr/bin/env python3
"""Scenario-registry stress benchmark: the harness behind ``BENCH_workloads.json``.

Two legs (see ``docs/performance.md`` for the schema):

* **stress** — the full differential matrix: every scenario family x every
  registered target x every technique, compiled (placements verified) under
  both cost models and diffed against the overhead invariants.  The harness
  fails (exit 1) on any violation — that is a correctness bug, not a
  performance number.
* **families** — per-family facts on one target: procedure/block/instruction
  counts, switch terminators, irreducibility, loop-nest depth, and the mean
  overhead ratio of each technique against entry/exit placement.

Run from a checkout::

    PYTHONPATH=src python benchmarks/bench_workloads.py [--seed 0] [--count N]

Results are appended-by-overwrite to ``BENCH_workloads.json`` at the repo
root (use ``--output`` to redirect).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.analysis.loops import compute_loop_forest, is_reducible  # noqa: E402
from repro.evaluation.differential import run_stress  # noqa: E402
from repro.ir.instructions import Opcode  # noqa: E402
from repro.target.registry import DEFAULT_TARGET, get_target  # noqa: E402
from repro.workloads.scenarios import build_scenario, scenario_names  # noqa: E402

SCHEMA = "bench_workloads/v1"


def family_facts(name: str, seed: int, count, machine) -> dict:
    """Size and control-flow facts of one family on one target."""

    procedures = build_scenario(name, seed=seed, count=count, machine=machine)
    switches = 0
    irreducible = 0
    max_depth = 0
    blocks = 0
    instructions = 0
    for procedure in procedures:
        function = procedure.function
        blocks += len(function)
        instructions += function.instruction_count()
        switches += sum(
            1 for inst in function.instructions() if inst.opcode is Opcode.SWITCH
        )
        if not is_reducible(function):
            irreducible += 1
        max_depth = max(max_depth, compute_loop_forest(function).max_depth())
    return {
        "procedures": len(procedures),
        "blocks": blocks,
        "instructions": instructions,
        "switches": switches,
        "irreducible": irreducible,
        "max_loop_depth": max_depth,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--count", type=int, default=None, help="procedures per family (default: family's own)"
    )
    parser.add_argument("--target", default=DEFAULT_TARGET, help="target for the family facts leg")
    parser.add_argument(
        "--output",
        default=os.path.join(_REPO_ROOT, "BENCH_workloads.json"),
        help="output JSON path (default: BENCH_workloads.json at the repo root)",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    report = run_stress(seed=args.seed, count=args.count)
    stress_seconds = time.perf_counter() - started
    for violation in report.violations:
        print(f"VIOLATION: {violation.describe()}", file=sys.stderr)

    machine = get_target(args.target)
    families = {}
    for name in scenario_names():
        facts = family_facts(name, args.seed, args.count, machine)
        facts["mean_ratio"] = {
            technique: round(report.mean_ratio(name, args.target, technique), 4)
            for technique in report.techniques
            if technique != "baseline"
        }
        families[name] = facts

    payload = {
        "schema": SCHEMA,
        "seed": args.seed,
        "target": args.target,
        "stress": {
            "targets": list(report.targets),
            "procedures": report.num_procedures(),
            "violations": len(report.violations),
            "fallbacks": report.total_fallbacks(),
            "wall_seconds": round(stress_seconds, 3),
        },
        "families": families,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    print(
        f"stress: {payload['stress']['procedures']} compiles across "
        f"{len(report.targets)} targets in {stress_seconds:.1f}s, "
        f"{len(report.violations)} violation(s), "
        f"{payload['stress']['fallbacks']} fallback(s)"
    )
    return 1 if report.violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
