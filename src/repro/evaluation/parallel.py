"""Process-pool parallel evaluation engine.

Every procedure of the synthetic suite is compiled independently — register
allocation, the three placement techniques and the overhead accounting share
nothing between procedures — so the evaluation parallelizes at *procedure*
granularity.  This module provides the sharding machinery the evaluation
runner (:mod:`repro.evaluation.runner`), the ablations and the batch compiler
(:func:`repro.pipeline.compiler.compile_many`) plug into:

* :class:`ProcedureMeasurement` — the compact, picklable per-procedure
  summary workers send back (the full :class:`CompiledProcedure`, with its
  rewritten function and placements, stays in the worker).
* :func:`measure_procedure_groups` — shards groups (benchmarks) of
  procedures over a :class:`~concurrent.futures.ProcessPoolExecutor` with
  chunked submission and a **deterministic merge**: results are re-assembled
  in the original submission order, so parallel and serial runs aggregate
  the same floating-point sums in the same order and produce bit-identical
  measurements.
* :func:`compile_procedures_parallel` — the same sharding for callers that
  need the full compiled artifacts back.

Serial fallback: ``workers=1`` (or a single procedure, or a cost model /
machine that cannot be pickled, e.g. a closure-based custom model) runs the
exact same code path in-process — no executor, no pickling — so the engine
is safe to leave enabled everywhere.  ``workers=None`` ("auto") resolves to
the *available* cores and stays serial on a single-core machine, where a
pool is pure overhead.

Teardown: the process pool never outlives its batch.  On any failure — a
procedure that raises in a worker, a ``KeyboardInterrupt`` in the parent —
pending chunks are cancelled and the pool is shut down (workers joined)
*before* the exception propagates, so a crashing evaluation cannot leak
worker processes (regression-tested in ``tests/evaluation/test_parallel.py``).

Compile cache: both sharding entry points accept ``cache=`` (a
:class:`~repro.cache.store.CompileCache` or a directory).  Cache hits are
resolved in the parent *before* chunk planning, so only misses are sharded
to the pool; the parent writes the workers' results back through the same
deterministic merge.  The cache stacks with ``workers`` — a warm run skips
the pool entirely.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.store import CacheSpec, resolve_cache
from repro.pipeline.compiler import TECHNIQUES, procedure_parts

#: Chunks submitted per worker (oversubscription smooths uneven chunk cost:
#: a worker that drew cheap procedures picks up another chunk instead of
#: idling while the slowest worker finishes).
CHUNKS_PER_WORKER = 4


def available_cpus() -> int:
    """Cores actually available to this process.

    ``os.cpu_count()`` reports the *host*'s cores; inside a container or
    under a CPU affinity mask the process may be pinned to far fewer.  Take
    the affinity set when the platform exposes it, capped by ``cpu_count``.
    """

    count = os.cpu_count() or 1
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - platform dependent
        affinity = count
    return max(1, min(count, affinity or count))


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count argument.

    ``None`` means "auto": every *available* core — but on a single-core
    machine auto mode resolves to ``1`` and the engine stays serial, because
    a process pool there is pure overhead (``BENCH_parallel.json`` records a
    0.89x slowdown from pool startup and pickling on one core).  Explicit
    values must be positive and are honoured as given.
    """

    if workers is None:
        count = available_cpus()
        return 1 if count <= 1 else count
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    return int(workers)


def effective_workers(
    workers: Optional[int], total: int, machine=None, cost_model="jump_edge"
) -> int:
    """The worker count a batch of ``total`` procedures would actually use.

    ``1`` whenever the serial fallback applies (one worker requested, a
    batch too small to shard, or an unpicklable machine/cost model) — the
    number honest reporting should quote, as opposed to the *requested*
    count.  A batch smaller than the requested pool caps the answer at
    ``total``, matching the executor cap in the sharding path.  A compile
    cache can still shrink the batch below ``total`` at run time (a fully
    warm run skips the pool entirely), which this pre-run answer cannot
    see.
    """

    resolved = resolve_workers(workers)
    if not _can_shard(resolved, total, machine, cost_model):
        return 1
    # The pool is never larger than the chunk plan, and the plan never has
    # more workers' worth of chunks than procedures.
    return min(resolved, total)


def _picklable(value: object) -> bool:
    """Can ``value`` cross a process boundary?"""

    try:
        pickle.dumps(value)
    except Exception:
        return False
    return True


@dataclass(frozen=True)
class ProcedureMeasurement:
    """Everything the suite aggregation needs from one compiled procedure.

    A compact, picklable summary — the worker keeps the heavyweight
    :class:`~repro.pipeline.compiler.CompiledProcedure` (rewritten function,
    placements, profiles) to itself and ships only these numbers back.
    """

    name: str
    num_blocks: int
    num_instructions: int
    allocator_overhead: float
    #: Callee-saved dynamic overhead per technique.
    callee_saved_overhead: Dict[str, float]
    #: Pass wall-clock seconds keyed by pass name (measured in the worker).
    pass_seconds: Dict[str, float]


def summarize_compiled(compiled, techniques: Sequence[str]) -> ProcedureMeasurement:
    """Extract the :class:`ProcedureMeasurement` of one compiled procedure."""

    return ProcedureMeasurement(
        name=compiled.name,
        num_blocks=len(compiled.allocation.function),
        num_instructions=compiled.allocation.function.instruction_count(),
        allocator_overhead=compiled.allocator_overhead,
        callee_saved_overhead={
            technique: compiled.callee_saved_overhead(technique) for technique in techniques
        },
        pass_seconds=dict(compiled.pass_seconds),
    )


def measure_procedure(
    procedure,
    machine=None,
    cost_model="jump_edge",
    techniques: Sequence[str] = TECHNIQUES,
    maximal_regions: bool = True,
) -> ProcedureMeasurement:
    """Compile one procedure and return its measurement summary."""

    from repro.pipeline.compiler import compile_procedure

    compiled = compile_procedure(
        procedure,
        machine=machine,
        cost_model=cost_model,
        techniques=techniques,
        maximal_regions=maximal_regions,
    )
    return summarize_compiled(compiled, techniques)


# ---------------------------------------------------------------------------
# Worker entry points (module-level so they pickle by qualified name).
# ---------------------------------------------------------------------------


def _measure_chunk(payload) -> List[ProcedureMeasurement]:
    """Worker: compile a chunk of procedures, return their summaries."""

    procedures, machine, cost_model, techniques, maximal_regions = payload
    from repro.analysis.bitset import base_register_index
    from repro.spill.cost_models import make_cost_model
    from repro.target.registry import resolve_target

    machine = resolve_target(machine)
    if isinstance(cost_model, str):
        cost_model = make_cost_model(cost_model, machine)
    # Prime the per-process interning index once; every compile in this
    # worker forks it instead of re-interning the register universe.
    base_register_index(machine)
    return [
        measure_procedure(
            procedure,
            machine=machine,
            cost_model=cost_model,
            techniques=techniques,
            maximal_regions=maximal_regions,
        )
        for procedure in procedures
    ]


def _compile_chunk(payload) -> list:
    """Worker: compile a chunk of procedures, return the full artifacts."""

    procedures, machine, cost_model, techniques, maximal_regions = payload
    from repro.analysis.bitset import base_register_index
    from repro.pipeline.compiler import compile_procedure
    from repro.spill.cost_models import make_cost_model
    from repro.target.registry import resolve_target

    machine = resolve_target(machine)
    if isinstance(cost_model, str):
        cost_model = make_cost_model(cost_model, machine)
    base_register_index(machine)
    return [
        compile_procedure(
            procedure,
            machine=machine,
            cost_model=cost_model,
            techniques=techniques,
            maximal_regions=maximal_regions,
        )
        for procedure in procedures
    ]


# ---------------------------------------------------------------------------
# Cache resolution (before any chunk planning).
# ---------------------------------------------------------------------------


def _cache_options_token(
    machine, cost_model, techniques: Sequence[str], maximal_regions: bool
) -> Optional[str]:
    """The batch's cache-key options token, or ``None`` when uncacheable.

    The target is resolved and a by-name cost model instantiated first, so
    ``cost_model="jump_edge"`` and an equivalent
    :class:`~repro.spill.cost_models.JumpEdgeCostModel` instance produce the
    same token (and therefore share cache entries).
    """

    from repro.ir.fingerprint import compile_options_token
    from repro.spill.cost_models import make_cost_model
    from repro.target.registry import resolve_target

    resolved = resolve_target(machine)
    model = (
        make_cost_model(cost_model, resolved)
        if isinstance(cost_model, str)
        else cost_model
    )
    return compile_options_token(resolved, model, techniques, maximal_regions)


def _resolve_cached(
    store,
    groups: Sequence[Sequence[object]],
    machine,
    cost_model,
    techniques: Sequence[str],
    maximal_regions: bool,
    kind: str,
):
    """Fill result slots from the cache; return what still must be compiled.

    Returns ``(results, keys, misses)``: ``results`` mirrors ``groups`` with
    hits filled in and ``None`` holes, ``keys`` holds the cache key of every
    procedure (``None`` everywhere when the batch is uncacheable), and
    ``misses`` lists the ``(group, index)`` positions left to compile.
    """

    results: List[List[object]] = [[None] * len(group) for group in groups]
    keys: List[List[Optional[str]]] = [[None] * len(group) for group in groups]
    misses: List[Tuple[int, int]] = [
        (g, i) for g, group in enumerate(groups) for i in range(len(group))
    ]
    if store is None:
        return results, keys, misses
    token = _cache_options_token(machine, cost_model, techniques, maximal_regions)
    if token is None:
        # Identity-less custom cost model: bypass the cache for the batch.
        return results, keys, misses

    from repro.ir.fingerprint import procedure_cache_key

    misses = []
    for g, group in enumerate(groups):
        for i, procedure in enumerate(group):
            function, profile = procedure_parts(procedure)
            key = procedure_cache_key(function, profile, token, kind=kind)
            keys[g][i] = key
            hit = store.get(key)
            if hit is None:
                misses.append((g, i))
            else:
                results[g][i] = hit
    return results, keys, misses


# ---------------------------------------------------------------------------
# Sharding.
# ---------------------------------------------------------------------------


def _chunk_plan(
    group_sizes: Sequence[int], workers: int
) -> List[Tuple[int, int, int]]:
    """Split groups of procedures into submission chunks.

    Returns ``(group_index, start, stop)`` triples covering every procedure
    of every group, in deterministic (group, position) order.  The chunk size
    targets ``workers * CHUNKS_PER_WORKER`` chunks over the *whole* batch, so
    small benchmarks in a suite share workers with large ones instead of each
    benchmark being sharded on its own.
    """

    total = sum(group_sizes)
    if total == 0:
        return []
    chunk_size = max(1, -(-total // (workers * CHUNKS_PER_WORKER)))
    plan: List[Tuple[int, int, int]] = []
    for group_index, size in enumerate(group_sizes):
        start = 0
        while start < size:
            stop = min(start + chunk_size, size)
            plan.append((group_index, start, stop))
            start = stop
    return plan


def _can_shard(workers: int, total: int, machine, cost_model) -> bool:
    """Should this batch cross process boundaries at all?"""

    if workers <= 1 or total <= 1:
        return False
    if not _picklable(machine) or not _picklable(cost_model):
        return False
    return True


def _run_sharded(
    worker_fn,
    groups: Sequence[Sequence[object]],
    machine,
    cost_model,
    techniques: Sequence[str],
    maximal_regions: bool,
    workers: int,
) -> List[List[object]]:
    """Submit chunks of every group to a pool; merge in submission order."""

    sizes = [len(group) for group in groups]
    plan = _chunk_plan(sizes, workers)
    results: List[List[object]] = [[None] * size for size in sizes]
    techniques = tuple(techniques)
    pool = ProcessPoolExecutor(max_workers=min(workers, max(1, len(plan))))
    futures = []
    try:
        futures = [
            pool.submit(
                worker_fn,
                (
                    list(groups[g][start:stop]),
                    machine,
                    cost_model,
                    techniques,
                    maximal_regions,
                ),
            )
            for g, start, stop in plan
        ]
        # Collect in submission order — the merge is deterministic no matter
        # which worker finished first.
        for (g, start, _stop), future in zip(plan, futures):
            chunk = future.result()
            results[g][start : start + len(chunk)] = chunk
    except BaseException:
        # A failing chunk (or a KeyboardInterrupt in the parent) must not
        # leave workers grinding through the rest of the plan:
        # ``cancel_futures`` drops everything not yet running and
        # ``wait=True`` joins the worker processes, so no children leak
        # whatever the failure mode.
        pool.shutdown(wait=True, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return results


def _compute_groups(
    worker_fn,
    serial_fn,
    groups: Sequence[Sequence[object]],
    machine,
    cost_model,
    techniques: Sequence[str],
    maximal_regions: bool,
    workers: Optional[int],
    cache: CacheSpec,
    kind: str,
) -> List[List[object]]:
    """Shared skeleton of both entry points: cache → shard misses → merge.

    Cache hits are resolved *before* chunk planning, so only misses reach
    the pool (or the serial loop); the parent writes every miss result back
    to the cache after the deterministic merge.
    """

    workers = resolve_workers(workers)
    store = resolve_cache(cache)
    results, keys, misses = _resolve_cached(
        store, groups, machine, cost_model, techniques, maximal_regions, kind
    )
    if not misses:
        return results

    if _can_shard(workers, len(misses), machine, cost_model):
        miss_indices: List[List[int]] = [[] for _ in groups]
        for g, i in misses:
            miss_indices[g].append(i)
        miss_groups = [
            [groups[g][i] for i in indices] for g, indices in enumerate(miss_indices)
        ]
        computed = _run_sharded(
            worker_fn,
            miss_groups,
            machine,
            cost_model,
            techniques,
            maximal_regions,
            workers,
        )
        for g, indices in enumerate(miss_indices):
            for position, i in enumerate(indices):
                results[g][i] = computed[g][position]
    else:
        for g, i in misses:
            results[g][i] = serial_fn(
                groups[g][i],
                machine=machine,
                cost_model=cost_model,
                techniques=techniques,
                maximal_regions=maximal_regions,
            )
    if store is not None:
        for g, i in misses:
            if keys[g][i] is not None:
                store.put(keys[g][i], results[g][i])
    return results


def measure_procedure_groups(
    groups: Sequence[Sequence[object]],
    machine=None,
    cost_model="jump_edge",
    techniques: Sequence[str] = TECHNIQUES,
    maximal_regions: bool = True,
    workers: Optional[int] = 1,
    cache: CacheSpec = None,
) -> List[List[ProcedureMeasurement]]:
    """Measure groups (benchmarks) of procedures, one summary per procedure.

    The returned lists mirror ``groups`` exactly — ``result[g][i]`` is the
    measurement of ``groups[g][i]`` — regardless of worker scheduling, so
    downstream aggregation is order-deterministic and parallel runs are
    bit-identical to serial ones.  With ``cache``, hits fill their slots
    before chunk planning and only misses are compiled (then written back).
    """

    return _compute_groups(
        _measure_chunk,
        measure_procedure,
        groups,
        machine,
        cost_model,
        techniques,
        maximal_regions,
        workers,
        cache,
        kind="measure",
    )


def _compile_one(procedure, **kwargs):
    from repro.pipeline.compiler import compile_procedure

    return compile_procedure(procedure, **kwargs)


def compile_procedures_parallel(
    procedures: Sequence[object],
    machine=None,
    cost_model="jump_edge",
    techniques: Sequence[str] = TECHNIQUES,
    maximal_regions: bool = True,
    workers: Optional[int] = 1,
    cache: CacheSpec = None,
) -> list:
    """Compile a flat batch of procedures, returning full artifacts in order.

    The parallel backend of :func:`repro.pipeline.compiler.compile_many`:
    unlike :func:`measure_procedure_groups` the complete
    :class:`~repro.pipeline.compiler.CompiledProcedure` objects are pickled
    back from the workers, which is only worth it when the caller needs the
    placements themselves rather than the aggregate numbers.  Cached under
    the ``"compile"`` key namespace, disjoint from the summaries.
    """

    return _compute_groups(
        _compile_chunk,
        _compile_one,
        [procedures],
        machine,
        cost_model,
        techniques,
        maximal_regions,
        workers,
        cache,
        kind="compile",
    )[0]
