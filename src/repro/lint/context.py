"""Shared, memoized instruction-level analyses for one linted function.

Several lint rules read the same instruction-level analyses — liveness,
reaching definitions, profile block counts — so recomputing them per rule
would multiply the cost of a lint pass by the rule count.
:class:`AnalysisContext` computes each at most once and hands the cached
result to every rule.

Analyses of the CFG's shape (dominators, natural loops, reducibility,
reachability) are not kept here: the function's CFG snapshot
(:meth:`repro.ir.function.Function.cfg`) is their one cache, and rules read
them through :func:`~repro.ir.function.reachable_blocks`,
:func:`~repro.analysis.loops.is_reducible` and friends.  Linting never
mutates the IR (property-tested in ``tests/lint``), so both caches stay
valid for the whole pass.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.liveness import LivenessInfo, compute_liveness
from repro.analysis.reaching import ReachingDefinitions, compute_reaching_definitions
from repro.ir.function import Function
from repro.profiling.profile_data import EdgeProfile

_MISSING = object()


class AnalysisContext:
    """Compute-once, memoized analyses over one function.

    Rules access analyses as properties (``ctx.liveness``, ``ctx.reaching``,
    ``ctx.block_counts``); the first access runs the analysis, later
    accesses return the cached result.  The context also carries the optional inputs a rule
    may need — the :class:`~repro.profiling.profile_data.EdgeProfile`
    and the target machine description — so rule signatures stay uniform.
    """

    def __init__(self, function: Function, profile: Optional[EdgeProfile] = None, machine=None):
        self.function = function
        self.profile = profile
        self.machine = machine
        #: Layout position of each block label; diagnostics sort by it.
        self.block_order: Dict[str, int] = {
            label: index for index, label in enumerate(function.block_labels)
        }
        self._cache: Dict[str, object] = {}

    def _memo(self, key: str, compute):
        value = self._cache.get(key, _MISSING)
        if value is _MISSING:
            value = compute()
            self._cache[key] = value
        return value

    @property
    def liveness(self) -> LivenessInfo:
        """Block-level liveness (packed-bitset solution)."""

        return self._memo(
            "liveness", lambda: compute_liveness(self.function, machine=self.machine)
        )

    @property
    def reaching(self) -> ReachingDefinitions:
        """Reaching definitions at block boundaries."""

        return self._memo("reaching", lambda: compute_reaching_definitions(self.function))

    @property
    def block_counts(self) -> Dict[str, float]:
        """Profile-derived execution counts per block (requires a profile)."""

        if self.profile is None:
            raise ValueError("block_counts requires a profile")
        return self._memo("block_counts", lambda: self.profile.block_counts(self.function))
