"""Span tracing around the program's layer entry points, from outside.

:class:`Tracer` replaces each layer's public entry point, under the name its
caller imports it by, with a wrapper that records a span (name, start, end,
parent, trace id) and keeps counts at the same boundary.  The analysis
classes are counted by construction, ``DominatorTree.dominates`` and
``Function.cfg`` by call.  Every procedure compile starts a new trace id;
its children share it.  Spans stay in memory and are written out once, at
the end of the run.

A layer's self time is its spans' duration minus the part covered by child
spans; whatever no layer span covers is the pipeline's own (unattributed)
time.  :meth:`Tracer.misplaced` checks the span tree's shape: every layer
span lies inside a procedure's compile span and inside its parent's
interval.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("id", "parent", "trace", "name", "start", "end", "child_time", "attrs")

    def __init__(self, span_id: int, parent: Optional["Span"], trace: int, name: str):
        self.id = span_id
        self.parent = parent
        self.trace = trace
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.child_time = 0.0
        self.attrs: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    def to_json(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "parent": self.parent.id if self.parent is not None else None,
            "trace": self.trace,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "self": self.self_time,
            **self.attrs,
        }


#: Layer boundaries wrapped as spans: (module, attribute, span name).
#: Attributes are the names the callers import; ``CompileCache`` methods are
#: patched on the class.
SPAN_BOUNDARIES = (
    ("repro.pipeline.compiler", "compile_procedure", "pipeline.compile"),
    ("repro.pipeline.compiler", "allocate_registers", "regalloc"),
    ("repro.pipeline.compiler", "place_entry_exit", "spill.entry_exit"),
    ("repro.pipeline.compiler", "place_shrink_wrap", "spill.shrink_wrap"),
    ("repro.pipeline.compiler", "place_hierarchical", "spill.hierarchical"),
    ("repro.pipeline.compiler", "verify_placement", "spill.verifier"),
    ("repro.pipeline.compiler", "placement_dynamic_overhead", "spill.overhead"),
    ("repro.pipeline.compiler", "allocator_spill_overhead", "spill.overhead"),
    ("repro.spill.hierarchical", "build_pst", "analysis.pst"),
    ("repro.cache.store", "CompileCache.get", "cache.get"),
    ("repro.cache.store", "CompileCache.put", "cache.put"),
)

#: Calls counted without a span: (module, attribute, counter name).
COUNT_BOUNDARIES = (
    ("repro.analysis.dominance", "DominatorTree.__init__", "analysis.dominator_trees"),
    ("repro.analysis.loops", "LoopForest.__init__", "analysis.loop_forests"),
    ("repro.analysis.liveness", "LivenessInfo.__init__", "analysis.liveness_solves"),
    ("repro.analysis.pst", "ProgramStructureTree.__init__", "analysis.psts"),
    ("repro.analysis.dominance", "DominatorTree.dominates", "analysis.dominance_queries"),
    ("repro.ir.function", "Function.cfg", "ir.cfg_calls"),
)


def _resolve(module_name: str, attribute: str):
    import importlib

    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Installs the wrappers, records spans and counts, and removes them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[Span] = []
        self._next_id = 0
        self._patches: List[tuple] = []

    # -- spans --------------------------------------------------------------------

    @contextmanager
    def span(self, name: str, new_trace: bool = False):
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        trace = self._next_id if (new_trace or parent is None) else parent.trace
        span = Span(self._next_id, parent, trace, name)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_time += span.duration
            self.spans.append(span)

    # -- patching -----------------------------------------------------------------

    def _patch(self, module_name: str, attribute: str, make: Callable) -> None:
        owner, name = _resolve(module_name, attribute)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, make(original))
        self._patches.append((owner, name, original))

    def _span_wrapper(self, span_name: str, on_result: Optional[Callable]):
        tracer = self
        new_trace = span_name == "pipeline.compile"

        def make(original):
            def wrapper(*args, **kwargs):
                if new_trace:
                    # Measured outside the span, so it is no layer's time.
                    function = args[0].function if hasattr(args[0], "function") else args[0][0]
                    instructions = function.instruction_count()
                with tracer.span(span_name, new_trace=new_trace) as span:
                    if new_trace:
                        span.attrs["instructions"] = instructions
                    result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(result, span)
                return result

            return wrapper

        return make

    def _count_wrapper(self, counter: str):
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return original(*args, **kwargs)

            return wrapper

        return make

    def install(self) -> "Tracer":
        hooks = {
            "regalloc": self._on_allocation,
            "spill.hierarchical": self._on_hierarchical,
            "analysis.pst": self._on_pst,
            "cache.get": self._on_cache_get,
            "cache.put": self._on_cache_put,
        }
        for module_name, attribute, span_name in SPAN_BOUNDARIES:
            self._patch(module_name, attribute, self._span_wrapper(span_name, hooks.get(span_name)))
        for module_name, attribute, counter in COUNT_BOUNDARIES:
            self._patch(module_name, attribute, self._count_wrapper(counter))
        return self

    def remove(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- result hooks -------------------------------------------------------------

    def _on_allocation(self, result, _span) -> None:
        self.counts["regalloc.rounds"] += result.rounds
        self.counts["regalloc.spilled"] += result.num_spilled
        self.counts["regalloc.callee_saved_used"] += len(result.callee_saved_registers_used())

    def _on_hierarchical(self, result, _span) -> None:
        self.counts["spill.hierarchical.decisions"] += len(result.decisions)
        self.counts["spill.hierarchical.replaced"] += sum(1 for d in result.decisions if d.replaced)
        self.counts["spill.hierarchical.fallbacks"] += len(result.placement.fallback_registers)

    def _on_pst(self, result, _span) -> None:
        self.counts["analysis.pst_regions"] += len(result.regions())

    def _on_cache_get(self, result, span) -> None:
        hit = result is not None
        span.attrs["hit"] = hit
        self.counts["cache.lookups"] += 1
        self.counts["cache.hits"] += int(hit)

    def _on_cache_put(self, _result, _span) -> None:
        self.counts["cache.stores"] += 1

    # -- reporting ----------------------------------------------------------------

    def unfired(self) -> List[str]:
        """Boundaries that never fired: a renamed entry point drops a layer."""

        seen = {span.name for span in self.spans}
        missing = sorted({name for _m, _a, name in SPAN_BOUNDARIES} - seen)
        missing += sorted(name for _m, _a, name in COUNT_BOUNDARIES if not self.counts[name])
        return missing

    def misplaced(self) -> List[str]:
        """Spans outside a ``pipeline.compile`` span or outside their parent's interval.

        Every layer runs inside one procedure's compile; a layer span
        elsewhere means work the per-procedure accounting does not see.
        """

        bad = []
        for span in self.spans:
            if span.parent is None:
                continue
            if not span.parent.start <= span.start <= span.end <= span.parent.end:
                bad.append(f"{span.name} #{span.id} outside its parent's interval")
            ancestor = span
            while ancestor is not None and ancestor.name != "pipeline.compile":
                ancestor = ancestor.parent
            if ancestor is None:
                bad.append(f"{span.name} #{span.id} outside any pipeline.compile span")
        return bad

    def roots(self) -> List[Span]:
        """Spans without a parent, in the order they started."""

        return sorted((s for s in self.spans if s.parent is None), key=lambda s: s.id)

    def self_times(self, root: Span) -> Dict[str, float]:
        """Self time per span name over ``root``'s subtree (root included)."""

        inside = {root.id}
        totals: Dict[str, float] = defaultdict(float)
        for span in sorted(self.spans, key=lambda s: s.id):
            if span.id == root.id or (span.parent is not None and span.parent.id in inside):
                inside.add(span.id)
                totals[span.name] += span.self_time
        return dict(totals)

    def per_procedure(self, root: Span, name: str) -> List[tuple]:
        """``(instructions, self time of spans called name)`` per procedure trace under ``root``."""

        inside = {root.id}
        procedures: Dict[int, int] = {}
        times: Dict[int, float] = defaultdict(float)
        for span in sorted(self.spans, key=lambda s: s.id):
            if span.parent is None or span.parent.id not in inside:
                continue
            inside.add(span.id)
            if span.name == "pipeline.compile":
                procedures[span.trace] = int(span.attrs["instructions"])
            if span.name == name:
                times[span.trace] += span.self_time
        return [(procedures[t], times[t]) for t in procedures if times.get(t, 0.0) > 0.0]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.id):
                handle.write(json.dumps(span.to_json(), sort_keys=True) + "\n")
            handle.write(json.dumps({"counts": dict(sorted(self.counts.items()))}) + "\n")
