"""The IFDS tabulation solver (Reps, Horwitz, Sagiv, POPL'95).

Computes the meet-over-all-valid-paths solution of an IFDS problem by
reducing it to reachability in the *exploded super graph*: node ``(s, d)``
is reachable from a seed ``(s0, 0)`` iff fact ``d`` may hold at statement
``s`` (Section 2.1 of the paper).

The implementation follows the worklist formulation with end summaries and
incoming maps also used by Heros:

- *path edges* ``(d1, n, d2)`` record that ``(n, d2)`` is reachable from
  ``(sp, d1)`` where ``sp`` is the start point of ``n``'s method;
- *end summaries* record exit facts per calling context ``d1``;
- the *incoming* map records callers per calling context so summaries can
  be replayed when either side appears first.

Statistics are collected so the experiments can reproduce the paper's
qualitative observation (Section 6.2) that analysis time correlates with
the number of edges constructed.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Generic,
    Hashable,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from repro.ifds.problem import IFDSProblem
from repro.ifds.worklist import (
    IFDS_DEFAULT_ORDER,
    make_worklist,
    resolve_worklist_order,
)
from repro.ir.instructions import Instruction
from repro.ir.program import IRMethod
from repro.obs import runtime as obs
from repro.utils import collector

__all__ = ["IFDSSolver", "IFDSResults"]

D = TypeVar("D", bound=Hashable)

# (caller call site, caller source fact, fact at call site)
_Incoming = Tuple[Instruction, Hashable, Hashable]
# (exit statement, exit fact)
_Summary = Tuple[Instruction, Hashable]


class IFDSResults(Generic[D]):
    """Facts reachable at each statement."""

    def __init__(self, facts_at: Dict[Instruction, Set[D]], zero: D) -> None:
        self._facts_at = facts_at
        self._zero = zero

    def at(self, stmt: Instruction, include_zero: bool = False) -> FrozenSet[D]:
        """The facts that may hold just *before* executing ``stmt``."""
        facts = self._facts_at.get(stmt, set())
        if include_zero:
            return frozenset(facts)
        return frozenset(fact for fact in facts if fact is not self._zero)

    def statements(self) -> Tuple[Instruction, ...]:
        return tuple(self._facts_at)

    def fact_count(self) -> int:
        """Total number of (statement, non-zero fact) pairs."""
        return sum(len(self.at(stmt)) for stmt in self._facts_at)


class IFDSSolver(Generic[D]):
    """Worklist tabulation solver for :class:`IFDSProblem`.

    ``worklist_order`` mirrors :class:`~repro.ide.solver.IDESolver`:
    ``"fifo"`` (also ``None``), ``"lifo"``, ``"random"`` with
    ``order_seed``, or ``"rpo"`` (see :mod:`repro.ifds.worklist`).  The
    reachable-fact fixed point, and the work to reach it, are identical
    for every order, so the default is the cheapest queue
    (:data:`~repro.ifds.worklist.IFDS_DEFAULT_ORDER`).
    """

    def __init__(
        self,
        problem: IFDSProblem[D],
        worklist_order: Optional[str] = None,
        order_seed: int = 0,
    ) -> None:
        self._order = resolve_worklist_order(worklist_order, IFDS_DEFAULT_ORDER)
        self.problem = problem
        self.icfg = problem.icfg
        self.stats: Dict[str, int] = {
            "path_edges": 0,
            "flow_applications": 0,
            "summaries": 0,
        }
        # path edges grouped by target statement: n -> {(d1, d2)}
        self._path_edges: Dict[Instruction, Set[Tuple[D, D]]] = {}
        # Pending (d1, n, d2) entries, in the order's queue.
        self._worklist, self._enqueue, self._dequeue = make_worklist(
            self._order, problem.icfg, order_seed
        )
        # (method, entry fact) -> summaries / incoming callers, as
        # insertion-ordered dicts (key -> None): a set of identity-hashed
        # statements iterates in address order, which would make the work
        # differ from one process to the next.
        self._end_summaries: Dict[Tuple[IRMethod, D], Dict[_Summary, None]] = {}
        self._incoming: Dict[Tuple[IRMethod, D], Dict[_Incoming, None]] = {}
        # Exploded-successor memos: flow-function targets depend only on
        # (statement, fact), never on the path's source fact d1, so they
        # are computed once per (n, d2) and replayed for every other d1.
        self._normal_cache: Dict[
            Tuple[Instruction, D], Tuple[Tuple[Instruction, D], ...]
        ] = {}
        self._c2r_cache: Dict[
            Tuple[Instruction, D], Tuple[Tuple[Instruction, D], ...]
        ] = {}
        self._call_cache: Dict[
            Tuple[Instruction, D],
            Tuple[Tuple[IRMethod, Instruction, Tuple[D, ...]], ...],
        ] = {}
        self._return_cache: Dict[
            Tuple[Instruction, Instruction, D],
            Tuple[Tuple[Instruction, D], ...],
        ] = {}
        # Statement kind (0 normal, 1 call, 2 exit, 3 exit-with-successors),
        # resolved once per statement instead of per worklist pop.
        self._kind_cache: Dict[Instruction, int] = {}
        # Flow functions are pure per ICFG edge; constructing them (closure
        # allocation in the client analyses) is cached per edge so memo
        # misses for further facts at the same edge skip it.
        self._flow_cache: Dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def solve(self) -> IFDSResults[D]:
        """Run the tabulation to a fixed point and collect results."""
        with collector.paused():
            with obs.tracer().span("ifds/tabulation", order=self._order):
                self._tabulate()
            obs.publish_stats("ifds.solver", self.stats)
            progress = obs.progress()
            if progress is not None:
                progress.finish()
            facts_at: Dict[Instruction, Set[D]] = {
                n: {d2 for (_, d2) in edges} for n, edges in self._path_edges.items()
            }
            return IFDSResults(facts_at, self.problem.zero)

    def _tabulate(self) -> None:
        for stmt, facts in self.problem.initial_seeds().items():
            for fact in facts:
                self._propagate(fact, stmt, fact)
        worklist = self._worklist
        kind_cache = self._kind_cache
        dequeue = self._dequeue
        tick = 0
        while worklist:
            # One heartbeat per 256 pops: flight ring and --progress.
            tick += 1
            if (tick & 255) == 0:
                obs.pulse(
                    "ifds/tabulation",
                    pops=tick,
                    worklist=len(worklist),
                    path_edges=self.stats["path_edges"],
                )
            d1, n, d2 = dequeue()
            kind = kind_cache.get(n)
            if kind is None:
                if self.icfg.is_call(n):
                    kind = 1
                elif self.icfg.is_exit(n):
                    # In a lifted (SPL-aware) CFG a disabled `return` falls
                    # through to its successor statement (cf. Figure 4b of
                    # the paper applied to exits); plain CFGs have no
                    # successors after a return.
                    kind = 3 if self.icfg.successors_of(n) else 2
                else:
                    kind = 0
                kind_cache[n] = kind
            if kind == 0:
                self._process_normal(d1, n, d2)
            elif kind == 1:
                self._process_call(d1, n, d2)
            else:
                self._process_exit(d1, n, d2)
                if kind == 3:
                    self._process_normal(d1, n, d2)

    def _propagate(self, d1: D, n: Instruction, d2: D) -> None:
        edges = self._path_edges.get(n)
        if edges is None:
            edges = self._path_edges[n] = set()
        key = (d1, d2)
        if key in edges:
            return
        edges.add(key)
        self.stats["path_edges"] += 1
        self._enqueue((d1, n, d2))

    # ------------------------------------------------------------------
    # Case: normal statements
    # ------------------------------------------------------------------

    def _process_normal(self, d1: D, n: Instruction, d2: D) -> None:
        key = (n, d2)
        exploded = self._normal_cache.get(key)
        if exploded is None:
            entries: List[Tuple[Instruction, D]] = []
            for succ in self.icfg.successors_of(n):
                fkey = ("normal", n, succ)
                flow = self._flow_cache.get(fkey)
                if flow is None:
                    flow = self._flow_cache[fkey] = self.problem.normal_flow(
                        n, succ
                    )
                self.stats["flow_applications"] += 1
                for d3 in flow.compute_targets(d2):
                    entries.append((succ, d3))
            exploded = self._normal_cache[key] = tuple(entries)
        # _propagate inlined: this loop dominates the tabulation, and the
        # call overhead is measurable at millions of propagations.
        path_edges = self._path_edges
        enqueue = self._enqueue
        for succ, d3 in exploded:
            edges = path_edges.get(succ)
            if edges is None:
                edges = path_edges[succ] = set()
            edge = (d1, d3)
            if edge not in edges:
                edges.add(edge)
                self.stats["path_edges"] += 1
                enqueue((d1, succ, d3))

    # ------------------------------------------------------------------
    # Case: call statements
    # ------------------------------------------------------------------

    def _call_targets(
        self, n: Instruction, d2: D
    ) -> Tuple[Tuple[IRMethod, Instruction, Tuple[D, ...]], ...]:
        key = (n, d2)
        targets = self._call_cache.get(key)
        if targets is None:
            entries: List[Tuple[IRMethod, Instruction, Tuple[D, ...]]] = []
            for callee in self.icfg.callees_of(n):
                fkey = ("call", n, callee)
                call_flow = self._flow_cache.get(fkey)
                if call_flow is None:
                    call_flow = self._flow_cache[fkey] = self.problem.call_flow(
                        n, callee
                    )
                self.stats["flow_applications"] += 1
                entry_facts = tuple(call_flow.compute_targets(d2))
                if entry_facts:
                    entries.append(
                        (callee, self.icfg.start_point_of(callee), entry_facts)
                    )
            targets = self._call_cache[key] = tuple(entries)
        return targets

    def _process_call(self, d1: D, n: Instruction, d2: D) -> None:
        return_sites = self.icfg.return_sites_of(n)
        for callee, start, entry_facts in self._call_targets(n, d2):
            for d3 in entry_facts:
                self._propagate(d3, start, d3)
                context = (callee, d3)
                self._incoming.setdefault(context, {})[(n, d1, d2)] = None
                for exit_stmt, d4 in self._end_summaries.get(context, ()):
                    self._apply_summary(
                        n, d1, callee, exit_stmt, d4, return_sites
                    )
        key = (n, d2)
        exploded = self._c2r_cache.get(key)
        if exploded is None:
            entries: List[Tuple[Instruction, D]] = []
            for return_site in return_sites:
                fkey = ("c2r", n, return_site)
                flow = self._flow_cache.get(fkey)
                if flow is None:
                    flow = self._flow_cache[
                        fkey
                    ] = self.problem.call_to_return_flow(n, return_site)
                self.stats["flow_applications"] += 1
                for d3 in flow.compute_targets(d2):
                    entries.append((return_site, d3))
            exploded = self._c2r_cache[key] = tuple(entries)
        for return_site, d3 in exploded:
            self._propagate(d1, return_site, d3)

    def _apply_summary(
        self,
        call: Instruction,
        caller_source: D,
        callee: IRMethod,
        exit_stmt: Instruction,
        exit_fact: D,
        return_sites: Tuple[Instruction, ...],
    ) -> None:
        key = (call, exit_stmt, exit_fact)
        exploded = self._return_cache.get(key)
        if exploded is None:
            entries: List[Tuple[Instruction, D]] = []
            for return_site in return_sites:
                fkey = ("return", call, exit_stmt, return_site)
                flow = self._flow_cache.get(fkey)
                if flow is None:
                    flow = self._flow_cache[fkey] = self.problem.return_flow(
                        call, callee, exit_stmt, return_site
                    )
                self.stats["flow_applications"] += 1
                for d5 in flow.compute_targets(exit_fact):
                    entries.append((return_site, d5))
            exploded = self._return_cache[key] = tuple(entries)
        for return_site, d5 in exploded:
            self._propagate(caller_source, return_site, d5)

    # ------------------------------------------------------------------
    # Case: exit statements
    # ------------------------------------------------------------------

    def _process_exit(self, d1: D, n: Instruction, d2: D) -> None:
        method = self.icfg.method_of(n)
        context = (method, d1)
        summaries = self._end_summaries.setdefault(context, {})
        summary = (n, d2)
        if summary in summaries:
            return
        summaries[summary] = None
        self.stats["summaries"] += 1
        for call, caller_source, _caller_fact in self._incoming.get(context, ()):
            self._apply_summary(
                call,
                caller_source,
                method,
                n,
                d2,
                self.icfg.return_sites_of(call),
            )
