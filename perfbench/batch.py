"""Batch compile workloads: the SPEC-like suite and the large-procedure ladder.

One caller compiles the workload's procedures serially and cold into a fresh
on-disk cache (``compile_procedure`` with ``workers=1`` semantics, one
procedure at a time, each timed as one request), then re-runs them warm
through a new ``CompileCache`` on the same directory.  Passes repeat until
the run's time is used up; pass times are medians over passes, and each
procedure's latency is its median over passes.  The latency percentiles
are taken over procedures: ``light`` is the warm re-run (answers from the
cache), ``heavy`` the cold compile.

Correctness: every procedure x technique of the first cold pass is run two
ways -- the allocated function with that technique's save/restore code
inserted, under the callee-saved convention check, and the pre-allocation IR
-- and both must return the same values.  Every later pass, cold or warm,
must reproduce the first pass's overheads exactly.  A compile that raises
counts as wrong for each of its techniques.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import shutil
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from common import BenchError, loglog_slope, median, percentile, report, self_peak_rss_mb
from speed import Speed, Window

#: ``num_segments`` of the large-procedure ladder, one procedure per rung:
#: about 0.7k to 3.6k instructions and 108 to 555 blocks.  Each rung's
#: control-flow graph is fixed (its generator seed is the rung), so the
#: ladder's timings measure size rather than the luck of one random graph;
#: the benchmark seed draws each rung's profile.  A held-out run
#: (``held_out=True``) lets the seed draw the graphs as well.
LADDER_SEGMENTS = (48, 72, 108, 162, 216, 288)

#: Input generations timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Workloads whose cold passes are scaled to reference speed procedure by
#: procedure rather than pass by pass.  A ``large_procs`` cold pass lasts
#: about 5 s, longer than the machine's speed stays put; with a probe pair
#: around each procedure (and :data:`PER_PROCEDURE_EXPONENT`) the spread of
#: its cold metrics over ten seeds fell from 0.11-0.21 to 0.04-0.08.
PER_PROCEDURE_PROBES = ("large_procs",)
#: Exponent of a single procedure's scale factor.  The probe swings more
#: than one long compile does: between the machine's quiet and busy states
#: the probe slowed 1.77x and a ladder compile 1.57x, and fitted log-log
#: slopes of compile time on probe time were 0.45-0.84 (lower for longer
#: compiles).  Over ten 22 s runs 0.6-0.8 gave the smallest spreads of the
#: cold metrics (0.02-0.07, against 0.06-0.10 with 1.0 and 0.12-0.13 raw).
#: Whole passes of short compiles or cache reads track the probe one to one.
PER_PROCEDURE_EXPONENT = 0.7
#: Warm passes after each cold pass (each through a new ``CompileCache``).
WARM_PASSES = 3


def build_spec_suite(seed: int) -> list:
    """The full-scale SPEC-like suite; seed 0 is the paper-evaluation suite."""

    from repro.workloads.spec_like import SPEC_BENCHMARKS, build_benchmark

    procedures = []
    for spec in SPEC_BENCHMARKS:
        spec = dataclasses.replace(spec, seed=spec.seed + 1000 * seed)
        procedures.extend(build_benchmark(spec).procedures)
    return procedures


def build_ladder(seed: int, held_out: bool = False) -> list:
    """One procedure per rung of :data:`LADDER_SEGMENTS`, its profile drawn from ``seed``.

    The profile knobs consume the generator's random stream exactly as the
    defaults do, so every seed yields the same control-flow graph; edge
    weights and loop-bound immediates differ.  With ``held_out`` the seed
    also picks each rung's graph (of the same size class).
    """

    from repro.workloads.generator import GeneratorConfig, generate_procedure

    procedures = []
    for segments in LADDER_SEGMENTS:
        rng = random.Random(f"perfbench/ladder/{seed}/{segments}")
        procedures.append(generate_procedure(GeneratorConfig(
            name=f"ladder_{segments}",
            seed=segments + 7919 * seed if held_out else segments,
            num_segments=segments,
            hot_region_probability=rng.uniform(0.6, 0.95),
            cold_region_probability=rng.uniform(0.01, 0.1),
            cold_region_fraction=rng.uniform(0.2, 0.6),
            early_exit_probability=rng.uniform(0.2, 0.6),
            loop_trip_count=rng.uniform(4.0, 16.0),
            invocations=100.0 * 100.0 ** rng.random(),
        )))
    return procedures


WORKLOADS = ("spec_suite", "large_procs")


def build_inputs(workload: str, seed: int, held_out: bool = False) -> list:
    """A workload's procedures; ``spec_suite``'s seed already varies its graphs."""

    if workload == "spec_suite":
        return build_spec_suite(seed)
    return build_ladder(seed, held_out)


def timed_setup(workload: str, seed: int, held_out: bool, speed: Speed) -> Tuple[list, float, float]:
    """Generate the inputs :data:`SETUP_REPEATS` times.

    Returns the last inputs and the median time, raw and at reference speed.
    """

    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        with speed.window() as window:
            start = time.perf_counter()
            procedures = build_inputs(workload, seed, held_out)
            raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * window.factor)
    return procedures, median(raw), median(scaled)


def input_shape(procedures: Sequence) -> Dict[str, int]:
    return {
        "procedures": len(procedures),
        "instructions": sum(p.function.instruction_count() for p in procedures),
        "blocks": sum(len(p.function) for p in procedures),
    }


def compile_pass(procedures: Sequence, store, root=nullcontext,
                 speed: Optional[Speed] = None) -> Tuple[list, List[float], float]:
    """Compile every procedure through ``store``; return results, per-procedure and total seconds.

    ``root`` wraps the timed loop (the traced run passes its root span).  A
    compile that raises leaves ``None`` in its place.  With ``speed`` every
    procedure is timed between its own probes and scaled to reference
    speed, and the total is the sum of the scaled times.
    """

    from repro.pipeline.compiler import compile_procedure

    # The cyclic collector skips what the benchmark itself holds (inputs,
    # reference results) while the pass runs.
    gc.collect()
    gc.freeze()
    results, latencies = [], []
    try:
        with root():
            start = time.perf_counter()
            for procedure in procedures:
                timer = speed.window(PER_PROCEDURE_EXPONENT) if speed is not None else nullcontext(Window())
                with timer as window:
                    begin = time.perf_counter()
                    try:
                        results.append(compile_procedure(procedure, cache=store))
                    except Exception as exc:  # noqa: BLE001 - a crash is a wrong output, counted
                        report(f"{procedure.function.name}: compile raised {exc!r}")
                        results.append(None)
                    elapsed = time.perf_counter() - begin
                latencies.append(elapsed * window.factor)
            total = time.perf_counter() - start if speed is None else sum(latencies)
    finally:
        gc.unfreeze()
    return results, latencies, total


def signature(compiled) -> Tuple:
    """The deterministic outcome of one compile: overheads per technique."""

    if compiled is None:
        return ("raised",)
    return (compiled.name, compiled.allocator_overhead) + tuple(
        (t, o.overhead.total, o.overhead.save_count, o.overhead.restore_count, o.overhead.jump_count)
        for t, o in sorted(compiled.outcomes.items())
    )


def interpreter_failures(procedures: Sequence, results: Sequence) -> Tuple[int, int]:
    """Run every procedure x technique both ways; return (pairs, disagreements)."""

    from repro.pipeline.compiler import TECHNIQUES
    from repro.profiling.interpreter import Interpreter, run_with_convention_check
    from repro.spill.insertion import apply_placement
    from repro.target.registry import resolve_target

    machine = resolve_target(None)
    pairs = failures = 0
    for procedure, compiled in zip(procedures, results):
        if compiled is None:
            pairs += len(TECHNIQUES)
            failures += len(TECHNIQUES)
            continue
        try:
            expected = Interpreter(machine=machine).run(procedure.function).return_values
        except Exception as exc:  # noqa: BLE001 - a crash is a disagreement, reported
            report(f"{compiled.name}: pre-allocation IR does not run: {exc!r}")
            expected = None
        for technique, outcome in compiled.outcomes.items():
            pairs += 1
            final = compiled.allocation.function.clone()
            try:
                apply_placement(final, outcome.placement)
                got = run_with_convention_check(final, machine).return_values
            except Exception as exc:  # noqa: BLE001
                report(f"{compiled.name} {technique}: {exc!r}")
                got = None
            if expected is None or got != expected:
                failures += 1
                report(f"{compiled.name} {technique}: returned {got}, expected {expected}")
    return pairs, failures


def mismatches(reference: Sequence, results: Sequence) -> int:
    """Procedure x technique pairs whose outcome differs from ``reference``."""

    from repro.pipeline.compiler import TECHNIQUES

    bad = 0
    for ref, got in zip(reference, results):
        if ref is None or signature(ref) != signature(got):
            bad += len(TECHNIQUES)
            if ref is not None:
                report(f"{ref.name}: a repeated compile differs from the first")
    return bad


def quality(results: Sequence) -> Dict[str, float]:
    results = [r for r in results if r is not None]
    base = sum(r.callee_saved_overhead("baseline") for r in results) or 1.0
    return {
        "optimized_ratio": sum(r.callee_saved_overhead("optimized") for r in results) / base,
        "shrinkwrap_ratio": sum(r.callee_saved_overhead("shrinkwrap") for r in results) / base,
    }


class Outcome:
    """Operation counts of one run: procedure x technique pairs, and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check_first(self, procedures, results) -> None:
        pairs, failures = interpreter_failures(procedures, results)
        self.attempted += pairs
        self.failed += failures

    def check_repeat(self, reference, results) -> None:
        from repro.pipeline.compiler import TECHNIQUES

        self.attempted += len(TECHNIQUES) * len(reference)
        self.failed += mismatches(reference, results)


def run_passes(procedures, workdir, seconds: float, outcome: Outcome, speed: Speed,
               per_procedure: bool):
    """Cold + warm passes until ``seconds`` are used; the first pass is kept for checks.

    Pass and per-procedure times are scaled to reference speed, each by the
    probes around its own pass (``per_procedure``: a cold pass's by the
    probes around each procedure).
    """

    from repro.cache.store import CompileCache

    def timed_pass(store, times, latencies, cold=False):
        if cold and per_procedure:
            results, pass_latencies, pass_s = compile_pass(procedures, store, speed=speed)
        else:
            with speed.window() as window:
                results, pass_latencies, pass_s = compile_pass(procedures, store)
            pass_s *= window.factor
            pass_latencies = [t * window.factor for t in pass_latencies]
        times.append(pass_s)
        latencies.append(pass_latencies)
        return results

    cold_times, warm_times, cold_lat, warm_lat, cycles = [], [], [], [], []
    reference = None
    deadline = time.perf_counter() + seconds
    while True:
        cycle_start = time.perf_counter()
        directory = workdir.fresh("cache")
        cold = timed_pass(CompileCache(directory), cold_times, cold_lat, cold=True)
        if reference is None:
            reference = cold
        else:
            outcome.check_repeat(reference, cold)
        for _ in range(WARM_PASSES):
            outcome.check_repeat(reference, timed_pass(CompileCache(directory), warm_times, warm_lat))
        shutil.rmtree(directory, ignore_errors=True)
        cycles.append(time.perf_counter() - cycle_start)
        # Stop before a cycle that would overrun the run's time.
        if time.perf_counter() + median(cycles) > deadline:
            break
    return reference, cold_times, warm_times, cold_lat, warm_lat


def per_procedure_ms(passes: Sequence[Sequence[float]]) -> List[float]:
    """Each procedure's median latency over the passes, in milliseconds."""

    return [median(samples) * 1000.0 for samples in zip(*passes)]


def end_to_end(workload: str, seed: int, seconds: float, workdir,
               held_out: bool = False) -> Tuple[Dict, Outcome, Speed]:
    speed = Speed()
    procedures, _raw_setup_s, setup_s = timed_setup(workload, seed, held_out, speed)
    outcome = Outcome()
    reference, cold_times, warm_times, cold_lat, warm_lat = run_passes(
        procedures, workdir, seconds, outcome, speed, workload in PER_PROCEDURE_PROBES
    )
    # Before the interpreter check, so the peak is the compile passes'.
    peak_rss_mb = self_peak_rss_mb()
    outcome.check_first(procedures, reference)
    compile_s = median(cold_times)
    cold_lat, warm_lat = per_procedure_ms(cold_lat), per_procedure_ms(warm_lat)
    values = {
        "setup_s": setup_s,
        "compile_s": compile_s,
        "warm_s": median(warm_times),
        "p50_ms.light": median(warm_lat),
        "p95_ms.light": percentile(warm_lat, 95),
        "p50_ms.heavy": median(cold_lat),
        "p95_ms.heavy": percentile(cold_lat, 95),
        "burst_rps": len(procedures) / compile_s,
        "peak_rss_mb": peak_rss_mb,
        **quality(reference),
    }
    return values, outcome, speed


#: How far the tracer's account of a traced pass may differ from the pass
#: loop's own clock: the span enter/exit work around each compile.
CLOCK_SLACK_S, CLOCK_SLACK_FRAC = 5e-3, 0.01


def check_spans(tracer, roots, passes) -> None:
    """Fail the run when the span tree disagrees with the pass loop's own clock.

    ``passes`` holds, per root, the loop's per-procedure latencies and total.
    Each pass must have one ``pipeline.compile`` span per procedure, each no
    longer than the caller's timing of that call and together close to it;
    the root's self times must add up to the loop's total; and every layer
    span must lie inside a procedure's compile span.
    """

    problems = tracer.misplaced()[:3]
    for root, (latencies, total) in zip(roots, passes):
        compiles = [s for s in tracer.spans if s.parent is root and s.name == "pipeline.compile"]
        compiles.sort(key=lambda s: s.id)
        if len(compiles) != len(latencies):
            problems.append(f"{root.name}: {len(compiles)} compile spans for {len(latencies)} compiles")
            continue
        spans_s, caller_s = sum(s.duration for s in compiles), sum(latencies)
        if any(s.duration > t for s, t in zip(compiles, latencies)) or \
                caller_s - spans_s > CLOCK_SLACK_S + CLOCK_SLACK_FRAC * caller_s:
            problems.append(f"{root.name}: compile spans {spans_s:.6f} s, caller timed {caller_s:.6f} s")
        attributed = sum(tracer.self_times(root).values())
        if abs(attributed - total) > CLOCK_SLACK_S + CLOCK_SLACK_FRAC * total:
            problems.append(f"{root.name}: self times sum to {attributed:.6f} s, the loop took {total:.6f} s")
    if problems:
        raise BenchError("span accounting: " + "; ".join(problems))


def traced_compile(procedures, workdir, outcome: Outcome):
    """Untraced, traced, untraced cold + warm passes; per-layer metrics of the traced one."""

    from repro.cache.store import CompileCache

    from spans import Tracer

    def untraced() -> Tuple[list, float]:
        directory = workdir.fresh("cache")
        cold, _lat, cold_s = compile_pass(procedures, CompileCache(directory))
        _warm, _lat, warm_s = compile_pass(procedures, CompileCache(directory))
        return cold, cold_s + warm_s

    # The first untraced pass also warms the process up; the overhead is
    # taken against the untraced pass that follows the traced one.
    reference, _first_s = untraced()
    tracer = Tracer().install()
    try:
        directory = workdir.fresh("cache")
        store = CompileCache(directory)
        cold, cold_lat, cold_s = compile_pass(procedures, store, lambda: tracer.span("bench.cold"))
        cold_counts = dict(tracer.counts)
        warm, warm_lat, warm_s = compile_pass(
            procedures, CompileCache(directory), lambda: tracer.span("bench.warm")
        )
    finally:
        tracer.remove()
    cold_root, warm_root = tracer.roots()
    disk_bytes = store.disk_bytes()
    again, untraced_s = untraced()

    outcome.check_first(procedures, reference)
    outcome.check_repeat(reference, cold)
    outcome.check_repeat(reference, warm)
    outcome.check_repeat(reference, again)
    check_spans(tracer, (cold_root, warm_root), ((cold_lat, cold_s), (warm_lat, warm_s)))

    selfs: Dict[str, float] = {}
    for root in (cold_root, warm_root):
        for name, value in tracer.self_times(root).items():
            selfs[name] = selfs.get(name, 0.0) + value
    # The traced end-to-end time is the pass loop's own clock; the layers'
    # self times plus the unattributed rest add up to it (check_spans).
    traced_s = cold_s + warm_s
    unattributed = selfs.pop("bench.cold", 0.0) + selfs.pop("bench.warm", 0.0)
    unattributed += selfs.pop("pipeline.compile", 0.0)

    def slope(name: str) -> float:
        points = tracer.per_procedure(cold_root, name)
        return loglog_slope([n for n, _ in points], [t for _, t in points])

    counts = tracer.counts
    decisions = counts["spill.hierarchical.decisions"]
    metrics = {
        "pipeline.traced_s": traced_s,
        "pipeline.unattributed_s": unattributed,
        "bench.trace_overhead_s": traced_s - untraced_s,
        "regalloc.self_s": selfs.get("regalloc", 0.0),
        "regalloc.rounds": counts["regalloc.rounds"],
        "regalloc.spilled": counts["regalloc.spilled"],
        "regalloc.callee_saved_used": counts["regalloc.callee_saved_used"],
        "regalloc.size_exponent": slope("regalloc"),
        "analysis.pst_s": selfs.get("analysis.pst", 0.0),
        "analysis.pst_regions": counts["analysis.pst_regions"],
        "analysis.pst_size_exponent": slope("analysis.pst"),
        "analysis.dominator_trees": cold_counts.get("analysis.dominator_trees", 0),
        "analysis.loop_forests": cold_counts.get("analysis.loop_forests", 0),
        "analysis.liveness_solves": cold_counts.get("analysis.liveness_solves", 0),
        "analysis.psts": cold_counts.get("analysis.psts", 0),
        "analysis.dominance_queries": cold_counts.get("analysis.dominance_queries", 0),
        "ir.cfg_calls": cold_counts.get("ir.cfg_calls", 0),
        "spill.hierarchical_s": selfs.get("spill.hierarchical", 0.0),
        "spill.hierarchical.decisions": decisions,
        "spill.hierarchical.replaced_frac": (
            counts["spill.hierarchical.replaced"] / decisions if decisions else 0.0
        ),
        "spill.hierarchical.fallbacks": counts["spill.hierarchical.fallbacks"],
        "spill.hierarchical.size_exponent": slope("spill.hierarchical"),
        "spill.entry_exit_s": selfs.get("spill.entry_exit", 0.0),
        "spill.shrink_wrap_s": selfs.get("spill.shrink_wrap", 0.0),
        "spill.verifier_s": selfs.get("spill.verifier", 0.0),
        "spill.overhead_s": selfs.get("spill.overhead", 0.0),
        "cache.get_s": selfs.get("cache.get", 0.0),
        "cache.put_s": selfs.get("cache.put", 0.0),
        "cache.stores": counts["cache.stores"],
        "cache.hit_frac": counts["cache.hits"] / counts["cache.lookups"],
        "cache.disk_bytes": disk_bytes,
    }
    return tracer, metrics


def per_layer(workload: str, seed: int, workdir,
              held_out: bool = False) -> Tuple[Dict, Outcome, object, list]:
    speed = Speed()
    procedures, build_s, _scaled = timed_setup(workload, seed, held_out, speed)
    outcome = Outcome()
    tracer, metrics = traced_compile(procedures, workdir, outcome)
    shape = input_shape(procedures)
    metrics.update({
        "workloads.build_s": build_s,
        "workloads.procedures": shape["procedures"],
        "workloads.instructions": shape["instructions"],
        "workloads.blocks": shape["blocks"],
        "bench.probe_ms": speed.median_ms(),
    })
    return metrics, outcome, tracer, procedures
