"""The differential stress harness over the scenario registry.

``repro-spill stress`` compiles every scenario family (or a subset) across
every registered target × placement technique (every compile verifies its
placements) and then *diffs* the results against the invariants the
techniques promise:

* **placement validity** — every technique's placement satisfies the
  callee-saved convention on every procedure (the verifier raises inside
  the pipeline; the harness converts the exception into a violation record
  together with the offending procedure's textual IR, ready to check into
  ``tests/workloads/corpus/`` as a regression fixture);
* **overhead sanity** — every overhead number is finite and non-negative;
* **optimality bound** — under the *execution-count* cost model the
  hierarchical placement is optimal, so its callee-saved overhead never
  exceeds the entry/exit baseline's;
* **Chow's jump-edge restriction** — the ``shrinkwrap`` technique never
  places spill code on an edge that would require a new jump block;
* **determinism** — compiling the same procedure twice produces bit-identical
  deterministic measurements (the property the parallel engine and the
  compile cache both rely on);
* **lint purity and determinism** — every procedure is linted twice with the
  full rule set: the two reports must be byte-identical (their fingerprint is
  recorded on the row, so chaos draws pin their diagnostics), and linting
  must not mutate the function (its IR fingerprint is unchanged);
* **frontend semantics** (catalog mode only) — every ``pyfunc`` catalog
  entry's translated function, after register allocation and spill insertion
  under every technique, is executed by the IR interpreter on seeded inputs
  and must return exactly what calling the original CPython function
  returns.

``repro-spill stress --catalog`` switches the procedure source from the
scenario registry to the versioned workload catalog
(:mod:`repro.workloads.catalog`): names are combination codes or aliases,
procedures come from :meth:`CatalogEntry.build`, and ``pyfunc`` entries
additionally run the frontend-semantics differential check.

The harness is deterministic: a given ``(scenarios, targets, seed, count)``
configuration always compiles the same procedures and reports the same
numbers, so a red stress run is reproducible with the printed configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.printer import print_function
from repro.pipeline.compiler import TECHNIQUES, compile_procedure
from repro.spill.cost_models import requires_jump_block
from repro.target.registry import available_targets, get_target
from repro.workloads.scenarios import build_scenario, scenario_names

#: Tolerance for floating-point overhead comparisons.
_EPSILON = 1e-6

#: The cost models a stress run exercises for the hierarchical technique.
STRESS_COST_MODELS = ("jump_edge", "execution_count")


@dataclass(frozen=True)
class StressRow:
    """One (scenario, target, procedure, cost model) compile of a stress run."""

    scenario: str
    target: str
    procedure: str
    cost_model: str
    #: Callee-saved dynamic overhead per technique.
    overheads: Dict[str, float]
    allocator_overhead: float
    #: Registers that needed the entry/exit soundness fallback, per technique.
    fallbacks: Dict[str, int]
    #: SHA-256 of the procedure's canonical lint report (full rule set) —
    #: the per-draw diagnostic fingerprint chaos scenarios pin in tests.
    lint_fingerprint: str = ""

    def ratio(self, technique: str) -> float:
        """Technique overhead relative to the entry/exit baseline."""

        baseline = self.overheads.get("baseline", 0.0)
        if baseline <= 0.0:
            return 1.0
        return self.overheads.get(technique, 0.0) / baseline


@dataclass(frozen=True)
class StressViolation:
    """One broken invariant, with enough context to reproduce it."""

    scenario: str
    target: str
    procedure: str
    cost_model: str
    invariant: str
    detail: str
    #: Canonical textual IR of the offending procedure — a ready-made
    #: regression fixture for ``tests/workloads/corpus/``.
    program: str

    def describe(self) -> str:
        """One-line human-readable account of the violation."""

        return (
            f"{self.scenario}/{self.procedure} on {self.target} "
            f"[{self.cost_model}]: {self.invariant}: {self.detail}"
        )


@dataclass
class StressReport:
    """Everything a stress run measured, plus every violated invariant."""

    scenarios: Tuple[str, ...]
    targets: Tuple[str, ...]
    techniques: Tuple[str, ...]
    seed: int
    cost_models: Tuple[str, ...] = STRESS_COST_MODELS
    rows: List[StressRow] = field(default_factory=list)
    violations: List[StressViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no invariant was violated anywhere in the matrix."""

        return not self.violations

    def num_procedures(self) -> int:
        """Distinct (scenario, target, procedure) compiles (cost models share)."""

        return len({(r.scenario, r.target, r.procedure) for r in self.rows})

    def rows_for(self, scenario: str, target: Optional[str] = None) -> List[StressRow]:
        """The rows of one scenario (optionally restricted to one target)."""

        return [
            r
            for r in self.rows
            if r.scenario == scenario and (target is None or r.target == target)
        ]

    def mean_ratio(self, scenario: str, target: str, technique: str) -> float:
        """Mean overhead ratio vs entry/exit under the primary cost model."""

        primary = self.cost_models[0] if self.cost_models else "jump_edge"
        rows = [r for r in self.rows_for(scenario, target) if r.cost_model == primary]
        if not rows:
            return 1.0
        return sum(r.ratio(technique) for r in rows) / len(rows)

    def total_fallbacks(self) -> int:
        """How many (row, technique) pairs needed the entry/exit fallback."""

        return sum(sum(r.fallbacks.values()) for r in self.rows)


def _deterministic_view(compiled, techniques: Sequence[str]) -> Tuple:
    """The bit-comparable projection of one compile (timings excluded)."""

    return (
        compiled.name,
        compiled.allocator_overhead,
        tuple((t, compiled.callee_saved_overhead(t)) for t in techniques),
    )


def _check_compiled(
    compiled,
    techniques: Sequence[str],
    cost_model: str,
    record,
) -> None:
    """Diff one compile against the overhead invariants."""

    for technique in techniques:
        overhead = compiled.callee_saved_overhead(technique)
        if not math.isfinite(overhead) or overhead < -_EPSILON:
            record(
                "overhead-sanity",
                f"{technique} callee-saved overhead is {overhead!r}",
            )
    if not math.isfinite(compiled.allocator_overhead) or compiled.allocator_overhead < -_EPSILON:
        record(
            "overhead-sanity",
            f"allocator overhead is {compiled.allocator_overhead!r}",
        )
    if (
        cost_model == "execution_count"
        and "optimized" in compiled.outcomes
        and "baseline" in compiled.outcomes
    ):
        # The execution-count model minimizes save/restore execution counts
        # and deliberately ignores jump materialization (that is the whole
        # point of the jump-edge model), so the optimality bound applies to
        # the save+restore component only.
        def save_restore(technique: str) -> float:
            overhead = compiled.outcomes[technique].overhead
            return overhead.save_count + overhead.restore_count

        optimized = save_restore("optimized")
        baseline = save_restore("baseline")
        if optimized > baseline + _EPSILON * max(1.0, baseline):
            record(
                "execution-count-optimality",
                f"hierarchical saves+restores {optimized:g} > entry/exit {baseline:g}",
            )
    if "shrinkwrap" in compiled.outcomes:
        allocated = compiled.allocation.function
        placement = compiled.outcomes["shrinkwrap"].placement
        offenders = [
            str(location)
            for location in placement.locations()
            if requires_jump_block(allocated, location.edge)
        ]
        if offenders:
            record(
                "chow-jump-edge-restriction",
                "shrink-wrap spill code needs a jump block at: " + "; ".join(offenders),
            )


def _check_lint(
    procedure, machine, scenario: str, target_name: str, report, program_text: str
) -> str:
    """Lint one procedure twice; diff the purity/determinism invariants.

    Returns the report fingerprint ("" when linting itself failed — which
    is recorded as a violation).
    """

    from repro.ir.fingerprint import fingerprint_function
    from repro.lint import lint_function

    def record(invariant: str, detail: str) -> None:
        report.violations.append(
            StressViolation(
                scenario=scenario,
                target=target_name,
                procedure=procedure.name,
                cost_model="-",
                invariant=invariant,
                detail=detail,
                program=program_text,
            )
        )

    before = fingerprint_function(procedure.function)
    try:
        first = lint_function(
            procedure.function, profile=procedure.profile, machine=machine
        )
        second = lint_function(
            procedure.function, profile=procedure.profile, machine=machine
        )
    except Exception as exc:  # noqa: BLE001 - any failure is a finding
        record("lint-crash", f"{type(exc).__name__}: {exc}")
        return ""
    if first.canonical_bytes() != second.canonical_bytes():
        record("lint-determinism", "re-linting produced a different report")
    if fingerprint_function(procedure.function) != before:
        record("lint-purity", "linting mutated the function's IR fingerprint")
    return first.fingerprint()


#: Seeded argument draws per (pyfunc entry, technique) in catalog mode.
_SEMANTICS_TRIALS = 4


def _check_frontend_semantics(
    entry,
    compiled,
    machine,
    techniques: Sequence[str],
    seed: int,
    index: int,
    record,
) -> None:
    """Differentially check a translated pyfunc against CPython.

    For every placement technique the allocated function plus that
    technique's spill code is executed by the IR interpreter — with the
    entry's sibling corpus functions in scope so intra-module calls resolve,
    and with the machine's calling convention active so caller-saved
    clobbering is live — on seeded inputs drawn from the entry's declared
    ranges.  Each run's return value must equal calling the original CPython
    function on the same arguments.
    """

    import random

    from repro.ir.module import Module
    from repro.profiling.interpreter import Interpreter
    from repro.spill.insertion import apply_placement
    from repro.workloads.catalog import corpus_functions, corpus_module

    python_func = corpus_functions(entry.module)[entry.func]
    siblings = corpus_module(entry.module)
    for technique in techniques:
        outcome = compiled.outcomes.get(technique)
        if outcome is None:
            continue
        final = compiled.allocation.function.clone()
        apply_placement(final, outcome.placement)
        module = Module(f"catalog.{entry.name}")
        module.add_function(final)
        for translated in siblings.functions.values():
            if translated.ir_name != final.name:
                module.add_function(translated.function.clone())
        interpreter = Interpreter(module=module, machine=machine)
        rng = random.Random(f"catalog-semantics/{entry.name}/{seed}/{index}")
        for _ in range(_SEMANTICS_TRIALS):
            args = entry.draw_inputs(rng)
            try:
                execution = interpreter.run(final, args)
            except Exception as exc:  # noqa: BLE001 - any failure is a finding
                record(
                    "frontend-semantics",
                    f"{technique} on args {args!r} raised "
                    f"{type(exc).__name__}: {exc}",
                )
                continue
            expected = int(python_func(*args))
            got = execution.return_values
            if got != (expected,):
                record(
                    "frontend-semantics",
                    f"{technique} on args {args!r} returned {got!r}, "
                    f"CPython returns {expected!r}",
                )


def run_stress(
    scenarios: Optional[Sequence[str]] = None,
    targets: Optional[Sequence[str]] = None,
    seed: int = 0,
    count: Optional[int] = None,
    techniques: Sequence[str] = TECHNIQUES,
    cost_models: Sequence[str] = STRESS_COST_MODELS,
    check_determinism: bool = True,
    catalog: bool = False,
) -> StressReport:
    """Compile scenarios × targets × techniques and diff the invariants.

    Parameters
    ----------
    scenarios:
        Family names from the registry (default: every registered family).
        In catalog mode: combination codes or aliases from the workload
        catalog (default: every catalog entry).
    targets:
        Registered target names (default: every registered target).
    seed / count:
        Passed to each family's builder; ``count=None`` uses the family's
        default procedure count (the entry's ``default_count`` in catalog
        mode).
    cost_models:
        Cost models to run the hierarchical technique under; the
        execution-count model additionally activates the optimality bound.
    check_determinism:
        Compile each procedure a second time (under the first cost model)
        and require bit-identical deterministic measurements.
    catalog:
        Draw procedures from the versioned workload catalog instead of the
        scenario registry, and differentially check every ``pyfunc`` entry's
        translated function against CPython (the *frontend-semantics*
        invariant).
    """

    catalog_obj = None
    if catalog:
        from repro.workloads.catalog import get_catalog

        catalog_obj = get_catalog()
        if scenarios is not None:
            scenario_list = tuple(
                catalog_obj.resolve(name).name for name in scenarios
            )
        else:
            scenario_list = catalog_obj.names()
    else:
        scenario_list = tuple(scenarios) if scenarios is not None else scenario_names()
    target_list = tuple(targets) if targets is not None else available_targets()
    report = StressReport(
        scenarios=scenario_list,
        targets=target_list,
        techniques=tuple(techniques),
        seed=seed,
        cost_models=tuple(cost_models),
    )

    for target_name in target_list:
        machine = get_target(target_name)
        for scenario in scenario_list:
            entry = None
            if catalog_obj is not None:
                entry = catalog_obj.resolve(scenario)
                procedures = [
                    entry.build(seed, i, machine)
                    for i in range(count or entry.default_count)
                ]
            else:
                procedures = build_scenario(
                    scenario, seed=seed, count=count, machine=machine
                )
            for index, procedure in enumerate(procedures):
                program_text = print_function(procedure.function)
                lint_fingerprint = _check_lint(
                    procedure, machine, scenario, target_name, report, program_text
                )
                first_views = {}
                for cost_model in cost_models:

                    def record(invariant: str, detail: str, _cm=cost_model) -> None:
                        report.violations.append(
                            StressViolation(
                                scenario=scenario,
                                target=target_name,
                                procedure=procedure.name,
                                cost_model=_cm,
                                invariant=invariant,
                                detail=detail,
                                program=program_text,
                            )
                        )

                    try:
                        compiled = compile_procedure(
                            procedure,
                            machine=machine,
                            cost_model=cost_model,
                            techniques=techniques,
                        )
                    except Exception as exc:  # noqa: BLE001 - any failure is a finding
                        record("compile-or-verify", f"{type(exc).__name__}: {exc}")
                        continue
                    _check_compiled(compiled, techniques, cost_model, record)
                    if (
                        entry is not None
                        and entry.kind == "pyfunc"
                        and cost_model == cost_models[0]
                    ):
                        _check_frontend_semantics(
                            entry, compiled, machine, techniques, seed, index, record
                        )
                    first_views[cost_model] = _deterministic_view(compiled, techniques)
                    report.rows.append(
                        StressRow(
                            scenario=scenario,
                            target=target_name,
                            procedure=procedure.name,
                            cost_model=cost_model,
                            overheads={
                                t: compiled.callee_saved_overhead(t) for t in techniques
                            },
                            allocator_overhead=compiled.allocator_overhead,
                            fallbacks={
                                t: len(o.placement.fallback_registers)
                                for t, o in compiled.outcomes.items()
                            },
                            lint_fingerprint=lint_fingerprint,
                        )
                    )
                if check_determinism and cost_models:
                    cost_model = cost_models[0]
                    if cost_model in first_views:
                        try:
                            again = compile_procedure(
                                procedure,
                                machine=machine,
                                cost_model=cost_model,
                                techniques=techniques,
                            )
                        except Exception as exc:  # noqa: BLE001
                            report.violations.append(
                                StressViolation(
                                    scenario, target_name, procedure.name, cost_model,
                                    "determinism",
                                    f"recompile raised {type(exc).__name__}: {exc}",
                                    program_text,
                                )
                            )
                        else:
                            if _deterministic_view(again, techniques) != first_views[cost_model]:
                                report.violations.append(
                                    StressViolation(
                                        scenario, target_name, procedure.name, cost_model,
                                        "determinism",
                                        "recompiling produced different measurements",
                                        program_text,
                                    )
                                )
    return report


def render_stress(report: StressReport, show_programs: bool = False) -> str:
    """Plain-text rendering of a stress report (deterministic)."""

    lines: List[str] = []
    lines.append(
        f"Differential stress: {len(report.scenarios)} scenario families x "
        f"{len(report.targets)} targets x {len(report.techniques)} techniques "
        f"(seed {report.seed})"
    )
    lines.append("")
    header = f"{'scenario':22s} {'target':8s} {'procs':>5s} " + " ".join(
        f"{t:>11s}" for t in report.techniques if t != "baseline"
    )
    primary = report.cost_models[0] if report.cost_models else "jump_edge"
    lines.append(header + f"   (mean overhead ratio vs entry/exit, {primary} model)")
    lines.append("-" * len(header))
    for scenario in report.scenarios:
        for target in report.targets:
            rows = [
                r
                for r in report.rows_for(scenario, target)
                if r.cost_model == primary
            ]
            if not rows:
                continue
            ratios = " ".join(
                f"{report.mean_ratio(scenario, target, t):>11.3f}"
                for t in report.techniques
                if t != "baseline"
            )
            lines.append(f"{scenario:22s} {target:8s} {len(rows):>5d} {ratios}")
    lines.append("")
    lines.append(
        f"compiled {report.num_procedures()} procedure/target pairs, "
        f"{report.total_fallbacks()} soundness fallbacks, "
        f"{len(report.violations)} violation(s)"
    )
    for violation in report.violations:
        lines.append(f"VIOLATION: {violation.describe()}")
        if show_programs:
            lines.append(violation.program)
    return "\n".join(lines)
