#!/usr/bin/env python3
"""Frontend + catalog benchmark: the harness behind ``BENCH_frontend.json``.

Three legs:

* **translate** — translation throughput over the whole checked-in corpus
  (cold, per-function) plus the per-module fingerprint cost; any corpus
  function failing to translate is a correctness bug (exit 1).
* **catalog** — catalog load/lint wall time and entry counts, plus the cost
  of building one procedure from every ``pyfunc`` entry (translation,
  execution-derived profiling and input drawing included).
* **compile** — translated-vs-synthetic compile cost: every ``pyfunc``
  catalog entry and an equal-sized scenario sample through the full
  pipeline (allocation + all techniques + verification) on one target,
  with the ``frontend-semantics`` differential check re-run on the pyfunc
  side so the benchmark cannot go green on wrong code.

Run from a checkout::

    PYTHONPATH=src python benchmarks/bench_frontend.py [--seed 0]

Results are appended-by-overwrite to ``BENCH_frontend.json`` at the repo
root (use ``--output`` to redirect).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.frontend import python_identity, translate_function  # noqa: E402
from repro.ir.module import Module  # noqa: E402
from repro.pipeline.compiler import TECHNIQUES, compile_procedure  # noqa: E402
from repro.profiling.interpreter import Interpreter  # noqa: E402
from repro.spill.insertion import apply_placement  # noqa: E402
from repro.target.registry import DEFAULT_TARGET, get_target  # noqa: E402
from repro.workloads.catalog import (  # noqa: E402
    catalog_directory,
    corpus_functions,
    corpus_module,
    get_catalog,
    load_catalog,
)
from repro.workloads.catalog.pyfuncs import CORPUS_MODULES  # noqa: E402
from repro.workloads.scenarios import build_scenario  # noqa: E402

SCHEMA = "bench_frontend/v1"

#: Seeded differential trials per compiled pyfunc entry.
TRIALS = 2


def bench_translate() -> dict:
    """Cold per-function translation cost over the whole corpus."""

    functions = []
    for mod in CORPUS_MODULES:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, func in corpus_functions(short).items():
            functions.append((f"{short}.{name}", func))
    started = time.perf_counter()
    instructions = 0
    for _name, func in functions:
        translated = translate_function(func)
        instructions += translated.function.instruction_count()
    seconds = time.perf_counter() - started
    return {
        "functions": len(functions),
        "instructions": instructions,
        "wall_seconds": round(seconds, 4),
        "functions_per_second": round(len(functions) / seconds, 1),
    }


def bench_catalog() -> dict:
    """Catalog load + lint cost and per-pyfunc procedure build cost."""

    started = time.perf_counter()
    catalog = load_catalog(catalog_directory())
    load_seconds = time.perf_counter() - started

    started = time.perf_counter()
    problems = catalog.lint()
    lint_seconds = time.perf_counter() - started

    machine = get_target(DEFAULT_TARGET)
    pyfunc_names = catalog.names("pyfunc")
    started = time.perf_counter()
    for name in pyfunc_names:
        catalog.resolve(name).build(0, 0, machine)
    build_seconds = time.perf_counter() - started
    return {
        "entries": len(catalog.names()),
        "pyfunc_entries": len(pyfunc_names),
        "scenario_entries": len(catalog.names("scenario")),
        "aliases": len(catalog.aliases),
        "lint_problems": len(problems),
        "load_seconds": round(load_seconds, 4),
        "lint_seconds": round(lint_seconds, 4),
        "pyfunc_build_seconds": round(build_seconds, 4),
    }


def _check_semantics(entry, compiled, machine, seed) -> int:
    """Differential check of one compiled pyfunc entry; returns violations."""

    python_func = corpus_functions(entry.module)[entry.func]
    siblings = corpus_module(entry.module)
    violations = 0
    for technique in TECHNIQUES:
        final = compiled.allocation.function.clone()
        apply_placement(final, compiled.outcomes[technique].placement)
        module = Module(f"bench.{entry.name}")
        module.add_function(final)
        for translated in siblings.functions.values():
            if translated.ir_name != final.name:
                module.add_function(translated.function.clone())
        interpreter = Interpreter(module=module, machine=machine)
        rng = random.Random(f"bench-frontend/{entry.name}/{seed}")
        for _ in range(TRIALS):
            args = entry.draw_inputs(rng)
            got = interpreter.run(final, args).return_values
            if got != (int(python_func(*args)),):
                violations += 1
                print(
                    f"VIOLATION: {entry.name} via {technique} on {args!r}: "
                    f"{got!r} != {python_func(*args)!r}",
                    file=sys.stderr,
                )
    return violations


def bench_compile(seed: int, target: str) -> dict:
    """Translated-vs-synthetic compile cost on one target."""

    catalog = get_catalog()
    machine = get_target(target)

    violations = 0
    pyfunc_names = catalog.names("pyfunc")
    started = time.perf_counter()
    for name in pyfunc_names:
        entry = catalog.resolve(name)
        procedure = entry.build(seed, 0, machine)
        compiled = compile_procedure(procedure, machine=machine, techniques=TECHNIQUES)
        violations += _check_semantics(entry, compiled, machine, seed)
    pyfunc_seconds = time.perf_counter() - started

    # A same-sized synthetic sample: scenario procedures round-robin.
    synthetic = []
    families = [
        catalog.resolve(name).family for name in catalog.names("scenario")
    ]
    cursor = 0
    while len(synthetic) < len(pyfunc_names):
        family = families[cursor % len(families)]
        index = cursor // len(families)
        synthetic.append(
            build_scenario(family, seed=seed, count=index + 1, machine=machine)[index]
        )
        cursor += 1
    started = time.perf_counter()
    for procedure in synthetic:
        compile_procedure(procedure, machine=machine, techniques=TECHNIQUES)
    synthetic_seconds = time.perf_counter() - started

    return {
        "target": target,
        "procedures_per_side": len(pyfunc_names),
        "pyfunc_seconds": round(pyfunc_seconds, 3),
        "synthetic_seconds": round(synthetic_seconds, 3),
        "semantics_violations": violations,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--target", default=DEFAULT_TARGET)
    parser.add_argument(
        "--output",
        default=os.path.join(_REPO_ROOT, "BENCH_frontend.json"),
        help="output JSON path (default: BENCH_frontend.json at the repo root)",
    )
    args = parser.parse_args(argv)

    translate = bench_translate()
    catalog = bench_catalog()
    compile_leg = bench_compile(args.seed, args.target)

    payload = {
        "schema": SCHEMA,
        "python": python_identity(),
        "seed": args.seed,
        "translate": translate,
        "catalog": catalog,
        "compile": compile_leg,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    print(
        f"translate: {translate['functions']} functions in "
        f"{translate['wall_seconds']}s; catalog: {catalog['entries']} entries, "
        f"lint {catalog['lint_problems']} problem(s); compile[{compile_leg['target']}]: "
        f"pyfunc {compile_leg['pyfunc_seconds']}s vs synthetic "
        f"{compile_leg['synthetic_seconds']}s, "
        f"{compile_leg['semantics_violations']} violation(s)"
    )
    failed = (
        catalog["lint_problems"] or compile_leg["semantics_violations"]
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
