"""The feature-aware, configuration-specific baseline ``A2``.

Section 6.1 of the paper: "A2 operates on the feature-annotated
control-flow graph just as SPLLIFT, however unlike SPLLIFT A2 is
configuration-specific, i.e., evaluates the product line only with respect
to one concrete configuration c at a time.  If a statement s is labeled
with a feature constraint F then A2 first checks whether c satisfies F to
determine whether s is enabled.  If it is, then A2 propagates flow to s's
standard successors using the standard IFDS flow function defined for s.
If c does not satisfy F then A2 uses the identity function to propagate
intra-procedural flows to fall-through successor nodes only."

"The implementation of A2 is so simple that we consider it foolproof" —
the paper uses it as the correctness oracle for SPLLIFT (RQ1), and so does
this reproduction (``tests/test_rq1_crosscheck.py``).

``A2`` wraps an unmodified IFDS problem (like SPLLIFT does) and is solved
with the plain IFDS tabulation solver, once per configuration.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, Set, Tuple, TypeVar

from repro.constraints.base import ConfigurationLike, as_assignment
from repro.core.icfg import LiftedICFG
from repro.ifds.flowfunctions import FlowFunction, Identity, KillAll
from repro.ifds.problem import IFDSProblem
from repro.ifds.solver import IFDSResults, IFDSSolver
from repro.ir.instructions import Goto, Instruction, Return
from repro.ir.program import IRMethod
from repro.utils import collector

__all__ = ["A2Problem", "solve_a2", "measure_a2"]

D = TypeVar("D", bound=Hashable)


class A2Problem(IFDSProblem[D]):
    """Configuration-specific feature-aware wrapper of an IFDS problem."""

    def __init__(
        self,
        inner: IFDSProblem[D],
        configuration: ConfigurationLike,
    ) -> None:
        icfg = inner.icfg
        if not isinstance(icfg, LiftedICFG):
            icfg = LiftedICFG(icfg)
            inner.icfg = icfg
        super().__init__(icfg)
        self.inner = inner
        feature_names: Set[str] = set()
        for stmt in icfg.reachable_instructions():
            if stmt.annotation is not None:
                feature_names |= stmt.annotation.variables()
        self._assignment = as_assignment(configuration, feature_names)
        self._enabled_cache: Dict[Instruction, bool] = {}

    def enabled(self, stmt: Instruction) -> bool:
        """Does the configuration satisfy the statement's annotation?"""
        if stmt.annotation is None:
            return True
        cached = self._enabled_cache.get(stmt)
        if cached is None:
            cached = stmt.annotation.evaluate(self._assignment)
            self._enabled_cache[stmt] = cached
        return cached

    # ------------------------------------------------------------------
    # Flow functions
    # ------------------------------------------------------------------

    def initial_seeds(self):
        return self.inner.initial_seeds()

    def normal_flow(self, stmt: Instruction, succ: Instruction) -> FlowFunction[D]:
        fall_through = LiftedICFG.fall_through_of(stmt)
        target = LiftedICFG.branch_target_of(stmt)
        if self.enabled(stmt):
            if isinstance(stmt, Goto) and succ is not target:
                return KillAll()  # an enabled goto never falls through
            if isinstance(stmt, Return):
                return KillAll()  # an enabled return exits, never flows on
            return self.inner.normal_flow(stmt, succ)
        # Disabled: identity along the fall-through branch only.
        if succ is fall_through:
            return Identity()
        return KillAll()

    def call_flow(self, call: Instruction, callee: IRMethod) -> FlowFunction[D]:
        if self.enabled(call):
            return self.inner.call_flow(call, callee)
        return KillAll()  # the call never happens

    def return_flow(
        self,
        call: Instruction,
        callee: IRMethod,
        exit_stmt: Instruction,
        return_site: Instruction,
    ) -> FlowFunction[D]:
        if self.enabled(call) and self.enabled(exit_stmt):
            return self.inner.return_flow(call, callee, exit_stmt, return_site)
        return KillAll()

    def call_to_return_flow(
        self, call: Instruction, return_site: Instruction
    ) -> FlowFunction[D]:
        if self.enabled(call):
            return self.inner.call_to_return_flow(call, return_site)
        return Identity()  # locals survive a call that never happens


def solve_a2(
    inner: IFDSProblem[D], configuration: ConfigurationLike
) -> IFDSResults[D]:
    """Solve one configuration with the A2 baseline; returns IFDS results."""
    return IFDSSolver(A2Problem(inner, configuration)).solve()


def measure_a2(
    inner: IFDSProblem[D], configuration: ConfigurationLike
) -> Tuple[float, Dict[str, int]]:
    """Time one A2 run; returns ``(seconds, solver_stats)``.

    The one A2 timing protocol: Table 2's campaign, Table 3's A2
    averages, the scaling anchors and the qualitative full-configuration
    run all time A2 here.  The timed region is the solve alone;
    building the :class:`A2Problem` (a scan of every reachable
    statement's annotation) happens before the clock starts.

    Module-level (not a closure) so the experiment harness can fan
    configurations over :class:`repro.core.parallel.ProcessTaskPool`
    worker processes — the campaign's unit of parallelism is one
    configuration.

    The whole run is one unit with the cyclic collector paused
    (:mod:`repro.utils.collector`), not just the solve: the result is
    built while the solver is still alive, and with the collector back
    on that allocation would start a young collection over the solver's
    live tables.
    """
    with collector.paused():
        solver = IFDSSolver(A2Problem(inner, configuration))
        started = time.perf_counter()
        solver.solve()
        return time.perf_counter() - started, dict(solver.stats)
