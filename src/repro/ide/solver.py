"""The IDE solver: jump-function construction plus value propagation.

Phase I builds *jump functions* — for each reachable exploded-graph node
``(n, d2)`` and each source fact ``d1`` at the start point of ``n``'s
method, the composed edge function summarizing all same-level paths from
``(sp, d1)`` to ``(n, d2)``.  The tabulation mirrors the IFDS solver
(summaries, incoming map), except that path edges carry edge functions
merged via ``join_with`` until a fixed point.

Phase II propagates concrete values: seeds flow through jump functions to
call sites, across call edges into callee start points (phase II(i)), and
finally to every node via its jump function (phase II(ii)).

The paper's observation that exchanging only the *start value* terminates
late (Section 4.2) is visible here: phase I dominates the cost, so
SPLLIFT's feature-model conjunction happens inside the edge functions,
collapsing contradictory compositions to all-top, which this solver drops
— ending those paths already during construction.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Deque,
    Dict,
    Generic,
    Hashable,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from repro.ide.edgefunctions import EdgeFunction
from repro.ide.problem import IDEProblem
from repro.ifds.worklist import (
    IDE_DEFAULT_ORDER,
    make_worklist,
    resolve_worklist_order,
)
from repro.ir.instructions import Instruction
from repro.ir.program import IRMethod
from repro.obs import runtime as obs
from repro.utils import collector

__all__ = ["IDESolver", "IDEResults"]

D = TypeVar("D", bound=Hashable)
V = TypeVar("V")

#: A callee of a call node ``(n, d2)``: the callee, its start point, and
#: each entry fact with the function of its call edge.
_CallTarget = Tuple[IRMethod, Instruction, Tuple[Tuple[D, EdgeFunction[V]], ...]]


class IDEResults(Generic[D, V]):
    """Solved values per (statement, fact)."""

    def __init__(
        self,
        values: Dict[Tuple[Instruction, D], V],
        top: V,
        zero: D,
    ) -> None:
        self._values = values
        self._top = top
        self._zero = zero
        # stmt -> {fact -> value}, non-top entries only; built on the first
        # `results_at` so per-statement queries are O(facts at stmt), not
        # O(all (stmt, fact) pairs in the program).
        self._by_stmt: Optional[Dict[Instruction, Dict[D, V]]] = None

    def value_at(self, stmt: Instruction, fact: D) -> V:
        """The joined value of ``fact`` just before ``stmt`` (top if the
        node is unreachable)."""
        return self._values.get((stmt, fact), self._top)

    def _stmt_index(self) -> Dict[Instruction, Dict[D, V]]:
        if self._by_stmt is None:
            index: Dict[Instruction, Dict[D, V]] = {}
            for (node, fact), value in self._values.items():
                if value == self._top:
                    continue
                row = index.get(node)
                if row is None:
                    row = index[node] = {}
                row[fact] = value
            self._by_stmt = index
        return self._by_stmt

    def results_at(
        self, stmt: Instruction, include_zero: bool = False
    ) -> Dict[D, V]:
        """All non-top facts and their values at ``stmt``."""
        row = self._stmt_index().get(stmt)
        if row is None:
            return {}
        if include_zero:
            return dict(row)
        zero = self._zero
        return {fact: value for fact, value in row.items() if fact is not zero}

    def non_top_count(self) -> int:
        return sum(1 for value in self._values.values() if value != self._top)

    def items(self):
        """Iterate ``((stmt, fact), value)`` pairs (top entries included)."""
        return self._values.items()


class IDESolver(Generic[D, V]):
    """Two-phase worklist solver for :class:`IDEProblem`.

    ``worklist_order`` selects the iteration order of phase I: ``"rpo"``
    (also ``None``), ``"fifo"``, ``"lifo"`` or ``"random"`` with
    ``order_seed`` (see :mod:`repro.ifds.worklist`).  The fixed point is
    order-independent, but the amount of work is not — the paper
    observes "a relatively high variance in the analysis times ... caused
    by non-determinism in the order in which the IDE solution is computed"
    (Section 6.2); exposing the order makes that variance measurable
    (see ``repro.experiments.variance``).  rpo re-joins least, so it is
    the default (:data:`~repro.ifds.worklist.IDE_DEFAULT_ORDER`).
    """

    def __init__(
        self,
        problem: IDEProblem[D, V],
        worklist_order: Optional[str] = None,
        order_seed: int = 0,
        summaries: Optional[object] = None,
    ) -> None:
        self._order = resolve_worklist_order(worklist_order, IDE_DEFAULT_ORDER)
        # Incremental warm-summary provider (repro.ide.summaries); None
        # on a cold solve.  The provider may detach itself in attach()
        # when the problem shape does not support reuse.
        self._summaries = summaries
        self.problem = problem
        self.icfg = problem.icfg
        self.stats: Dict[str, int] = {
            "jump_functions": 0,
            "flow_applications": 0,
            "edge_compositions": 0,
            "value_updates": 0,
            "value_batch_joins": 0,
            "worklist_deduped": 0,
            "compose_cache_hits": 0,
            "compose_cache_misses": 0,
            "join_cache_hits": 0,
            "join_cache_misses": 0,
            "interned_edges": 0,
            # Incremental reuse split: contexts injected from the store,
            # contexts tabulated while a summary cache was armed, and
            # reachable methods whose stored record was missing/unusable.
            # All deterministic zeros on a cold solve.
            "summaries_reused": 0,
            "summaries_recomputed": 0,
            "summaries_invalidated": 0,
        }
        # Two-level jump index: target stmt -> d1 -> d2 -> jump function.
        # The nesting lets phase II enumerate exactly the pairs whose source
        # fact matches, instead of scanning all (d1, d2) pairs per statement.
        self._jump: Dict[Instruction, Dict[D, Dict[D, EdgeFunction[V]]]] = {}
        # Pending (d1, n, d2) entries, in the order's queue.
        self._worklist, self._enqueue, self._dequeue = make_worklist(
            self._order, problem.icfg, order_seed
        )
        # Entries currently enqueued; re-joining a pending entry must not
        # enqueue it twice — its single pop reads the latest joined function.
        self._pending: Set[Tuple[D, Instruction, D]] = set()
        # The solver iterates the next two tables, so their values are
        # insertion-ordered dicts (key -> None), not sets: a set of
        # identity-hashed statements iterates in address order, which would
        # make the work differ from one process to the next.
        # (method, entry fact) -> {(exit stmt, exit fact): None}
        self._end_summaries: Dict[
            Tuple[IRMethod, D], Dict[Tuple[Instruction, D], None]
        ] = {}
        # (method, entry fact) -> {(call stmt, caller source, call fact):
        # the call edge into that context}
        self._incoming: Dict[
            Tuple[IRMethod, D], Dict[Tuple[Instruction, D, D], EdgeFunction[V]]
        ] = {}
        self._all_top = problem.all_top()
        # (call, d2) -> ((callee, callee start, ((entry fact, call edge),
        # ...)), ...).  Phase II walks the call edges again, so they are
        # kept; the other exploded successors are recomputed on the rare
        # re-walk of an (n, d2) node (rpo reaches most nodes once).
        self._call_cache: Dict[
            Tuple[Instruction, D],
            Tuple[_CallTarget, ...],
        ] = {}
        # Statement kind (0 normal, 1 call, 2 exit, 3 exit-with-successors),
        # resolved once per statement instead of per worklist pop.
        self._kind_cache: Dict[Instruction, int] = {}
        # Flow functions are pure per ICFG edge; constructing them (closure
        # allocation in the client analyses) is cached per edge, so further
        # facts at the same edge skip it.
        self._flow_cache: Dict[tuple, object] = {}

    # ==================================================================
    # Phase I: jump functions
    # ==================================================================

    def solve(self) -> IDEResults[D, V]:
        """Run both phases and return the solved values."""
        tracer = obs.tracer()
        with collector.paused():
            with tracer.span("ide/solve", order=self._order):
                with tracer.span("ide/phase1/tabulation"):
                    self._build_jump_functions()
                if self._summaries is not None:
                    # Store the freshly computed method summaries before the
                    # value phase; phase II reads, never extends, jump rows.
                    self._summaries.harvest(self)
                with tracer.span("ide/phase2/values"):
                    values = self._compute_values()
            self.stats.update(self.problem.edge_cache_stats())
            self.stats["worklist_order"] = self._order
            # Mirror the per-solve stats dict (the compatibility view) into
            # the process-wide registry, where campaigns aggregate.
            obs.publish_stats("ide.solver", self.stats)
            progress = obs.progress()
            if progress is not None:
                progress.finish()
            return IDEResults(values, self.problem.top_value(), self.problem.zero)

    def _build_jump_functions(self) -> None:
        seed_function = self.problem.seed_edge_function()
        if self._summaries is not None:
            self._summaries.attach(self)
        summaries = self._summaries  # attach() may have detached it
        for stmt, facts in self.problem.initial_seeds().items():
            method = self.icfg.method_of(stmt)
            ensure = (
                summaries is not None
                and stmt is self.icfg.start_point_of(method)
            )
            for fact in facts:
                if ensure:
                    summaries.ensure_context(self, method, fact, stmt)
                else:
                    self._propagate(fact, stmt, fact, seed_function)
        kind_cache = self._kind_cache
        worklist = self._worklist
        pending = self._pending
        jump = self._jump
        dequeue = self._dequeue
        tick = 0
        while worklist:
            # One heartbeat per 256 pops, so the hot loop pays a
            # mask-and-branch, nothing more.  The pulse is what lets a
            # postmortem of a worker killed mid-solve show where the
            # worklist stood in its final moments, and it feeds the
            # --progress line.
            tick += 1
            if (tick & 255) == 0:
                obs.pulse(
                    "ide/phase1",
                    pops=tick,
                    worklist=len(worklist),
                    jumps=self.stats["jump_functions"],
                )
            entry = dequeue()
            pending.discard(entry)
            d1, n, d2 = entry
            # Every propagated entry has a jump-table row, so the lookup
            # can index directly.
            f = jump[n][d1][d2]
            kind = kind_cache.get(n)
            if kind is None:
                if self.icfg.is_call(n):
                    kind = 1
                elif self.icfg.is_exit(n):
                    # A disabled `return` in a lifted CFG falls through to
                    # its successor; plain CFGs have none.
                    kind = 3 if self.icfg.successors_of(n) else 2
                else:
                    kind = 0
                kind_cache[n] = kind
            if kind == 0:
                self._process_normal(d1, n, d2, f)
            elif kind == 1:
                self._process_call(d1, n, d2, f)
            else:
                self._process_exit(d1, n, d2, f)
                if kind == 3:
                    self._process_normal(d1, n, d2, f)

    def _jump_fn(self, n: Instruction, d1: D, d2: D) -> EdgeFunction[V]:
        rows = self._jump.get(n)
        if rows is None:
            return self._all_top
        row = rows.get(d1)
        if row is None:
            return self._all_top
        return row.get(d2, self._all_top)

    def _propagate(
        self, d1: D, n: Instruction, d2: D, f: EdgeFunction[V]
    ) -> None:
        if f.is_top:
            return  # no flow — drop the path (early termination)
        rows = self._jump.get(n)
        if rows is None:
            rows = self._jump[n] = {}
        row = rows.get(d1)
        if row is None:
            row = rows[d1] = {}
        old = row.get(d2)
        if old is None:
            self.stats["jump_functions"] += 1
            joined = f
        else:
            joined = old.join_with(f)
            # Flyweight edges make the fixed-point check a pointer
            # comparison; `equal_to` remains as the general fallback.
            if joined is old or joined.equal_to(old):
                return
        row[d2] = joined
        entry = (d1, n, d2)
        if entry in self._pending:
            # Already enqueued: its pop reads the freshly joined function.
            self.stats["worklist_deduped"] += 1
            return
        self._pending.add(entry)
        self._enqueue(entry)

    # ------------------------------------------------------------------
    # Case: normal statements
    # ------------------------------------------------------------------

    def _process_normal(
        self, d1: D, n: Instruction, d2: D, f: EdgeFunction[V]
    ) -> None:
        # `_propagate` inlined: the compose loop below is the hottest frame
        # of the lifted solve (ROADMAP "solver micro-path"), and the call
        # overhead is measurable at millions of propagations.
        stats = self.stats
        problem = self.problem
        flow_cache = self._flow_cache
        jump = self._jump
        pending = self._pending
        enqueue = self._enqueue
        successors = self.icfg.successors_of(n)
        new_jumps = deduped = compositions = 0
        for succ in successors:
            fkey = ("normal", n, succ)
            flow = flow_cache.get(fkey)
            if flow is None:
                flow = flow_cache[fkey] = problem.normal_flow(n, succ)
            for d3, edge in flow.compute_targets(d2).items():
                compositions += 1
                fn = f.compose_with(edge)
                if fn.is_top:
                    continue  # no flow — drop the path (early termination)
                rows = jump.get(succ)
                if rows is None:
                    rows = jump[succ] = {}
                row = rows.get(d1)
                if row is None:
                    row = rows[d1] = {}
                old = row.get(d3)
                if old is None:
                    new_jumps += 1
                    joined = fn
                else:
                    joined = old.join_with(fn)
                    if joined is old or joined.equal_to(old):
                        continue
                row[d3] = joined
                entry = (d1, succ, d3)
                if entry in pending:
                    deduped += 1
                    continue
                pending.add(entry)
                enqueue(entry)
        stats["flow_applications"] += len(successors)
        stats["edge_compositions"] += compositions
        if new_jumps:
            stats["jump_functions"] += new_jumps
        if deduped:
            stats["worklist_deduped"] += deduped

    # ------------------------------------------------------------------
    # Case: call statements
    # ------------------------------------------------------------------

    def _call_targets(self, n: Instruction, d2: D) -> Tuple[_CallTarget, ...]:
        """Callees with at least one entry fact for ``(n, d2)``, each entry
        fact with its call edge (memoized)."""
        key = (n, d2)
        targets = self._call_cache.get(key)
        if targets is None:
            entries: List[_CallTarget] = []
            for callee in self.icfg.callees_of(n):
                fkey = ("call", n, callee)
                call_flow = self._flow_cache.get(fkey)
                if call_flow is None:
                    call_flow = self._flow_cache[fkey] = self.problem.call_flow(
                        n, callee
                    )
                self.stats["flow_applications"] += 1
                entry_edges = tuple(call_flow.compute_targets(d2).items())
                if entry_edges:
                    entries.append(
                        (callee, self.icfg.start_point_of(callee), entry_edges)
                    )
            targets = self._call_cache[key] = tuple(entries)
        return targets

    def _process_call(
        self, d1: D, n: Instruction, d2: D, f: EdgeFunction[V]
    ) -> None:
        return_sites = self.icfg.return_sites_of(n)
        seed_function = self.problem.seed_edge_function()
        provider = self._summaries
        for callee, start, entry_edges in self._call_targets(n, d2):
            for d3, call_edge in entry_edges:
                if provider is None:
                    self._propagate(d3, start, d3, seed_function)
                else:
                    # Warm path: inject the stored fixed point for the
                    # callee context (or fall back to seeding it) before
                    # the end-summaries lookup below, so an injected
                    # callee's summaries apply on this very visit.
                    provider.ensure_context(self, callee, d3, start)
                context = (callee, d3)
                self._incoming.setdefault(context, {})[(n, d1, d2)] = call_edge
                summaries = self._end_summaries.get(context)
                if not summaries:
                    continue
                for exit_stmt, d4 in summaries:
                    summary = self._jump_fn(exit_stmt, d3, d4)
                    self._apply_summary(
                        n, d1, f, call_edge, callee, exit_stmt, d4, summary, return_sites
                    )
        for return_site in return_sites:
            fkey = ("c2r", n, return_site)
            flow = self._flow_cache.get(fkey)
            if flow is None:
                flow = self._flow_cache[fkey] = self.problem.call_to_return_flow(
                    n, return_site
                )
            self.stats["flow_applications"] += 1
            for d3, edge in flow.compute_targets(d2).items():
                self.stats["edge_compositions"] += 1
                self._propagate(d1, return_site, d3, f.compose_with(edge))

    def _apply_summary(
        self,
        call: Instruction,
        caller_source: D,
        caller_fn: EdgeFunction[V],
        call_edge: EdgeFunction[V],
        callee: IRMethod,
        exit_stmt: Instruction,
        exit_fact: D,
        summary_fn: EdgeFunction[V],
        return_sites: Tuple[Instruction, ...],
    ) -> None:
        """Compose caller function, call edge, summary and return edge."""
        problem = self.problem
        stats = self.stats
        # The caller/call/summary prefix is shared by every return edge;
        # it is composed when the first return edge exists.
        prefix = None
        for return_site in return_sites:
            fkey = ("return", call, exit_stmt, return_site)
            flow = self._flow_cache.get(fkey)
            if flow is None:
                flow = self._flow_cache[fkey] = problem.return_flow(
                    call, callee, exit_stmt, return_site
                )
            stats["flow_applications"] += 1
            for d5, return_edge in flow.compute_targets(exit_fact).items():
                if prefix is None:
                    prefix = caller_fn.compose_with(call_edge).compose_with(
                        summary_fn
                    )
                    stats["edge_compositions"] += 2
                stats["edge_compositions"] += 1
                self._propagate(
                    caller_source, return_site, d5, prefix.compose_with(return_edge)
                )

    # ------------------------------------------------------------------
    # Case: exit statements
    # ------------------------------------------------------------------

    def _process_exit(
        self, d1: D, n: Instruction, d2: D, f: EdgeFunction[V]
    ) -> None:
        method = self.icfg.method_of(n)
        context = (method, d1)
        self._end_summaries.setdefault(context, {})[(n, d2)] = None
        incoming = self._incoming.get(context)
        if not incoming:
            return
        for (call, caller_source, call_fact), call_edge in tuple(incoming.items()):
            caller_fn = self._jump_fn(call, caller_source, call_fact)
            self._apply_summary(
                call,
                caller_source,
                caller_fn,
                call_edge,
                method,
                n,
                d2,
                f,
                self.icfg.return_sites_of(call),
            )

    # ==================================================================
    # Phase II: value computation
    # ==================================================================

    def _compute_values(self) -> Dict[Tuple[Instruction, D], V]:
        top = self.problem.top_value()
        join_values = self.problem.join_values
        values: Dict[Tuple[Instruction, D], V] = {}
        value_updates = 0

        def set_value(stmt: Instruction, fact: D, value: V) -> bool:
            nonlocal value_updates
            key = (stmt, fact)
            old = values.get(key, top)
            # Top is the join's neutral element; a stored value never
            # equals it, so only a missing key reads top.
            joined = value if old is top else join_values(old, value)
            # Identity first: value systems interning their instances (the
            # BDD constraint system does) make the no-change case pointer
            # equality.
            if joined is old or joined == old:
                return False
            values[key] = joined
            value_updates += 1
            return True

        # Phase II(i): start points and call sites.
        tracer = obs.tracer()
        worklist: Deque[Tuple[Instruction, D]] = deque()
        with tracer.span("ide/phase2/i"):
            for stmt, fact_values in self.problem.initial_seed_values().items():
                for fact, value in fact_values.items():
                    if set_value(stmt, fact, value):
                        worklist.append((stmt, fact))
            while worklist:
                n, d = worklist.popleft()
                value = values.get((n, d), top)
                method = self.icfg.method_of(n)
                if n is self.icfg.start_point_of(method):
                    for call in self.icfg.call_sites_in(method):
                        # Indexed jump table: enumerate only the pairs whose
                        # source fact is `d` instead of scanning all (d1, d2).
                        rows = self._jump.get(call)
                        row = rows.get(d) if rows is not None else None
                        if not row:
                            continue
                        for d2, f in row.items():
                            if set_value(call, d2, f.compute_target(value)):
                                worklist.append((call, d2))
                if self.icfg.is_call(n):
                    for _callee, start, entry_edges in self._call_targets(n, d):
                        for d3, edge in entry_edges:
                            if set_value(start, d3, edge.compute_target(value)):
                                worklist.append((start, d3))

        # Phase II(ii): every remaining node via its jump function.  The
        # two-level index looks up the start value once per source fact,
        # and since that value is fixed within a method, each jump function
        # is evaluated once per source fact (flyweight edges recur across a
        # method's statements).  Contributions from different source facts
        # d1 targeting the same (stmt, d2) are merged with one n-ary join
        # instead of a pairwise fold — at high-in-degree merge points this
        # halves the traffic to the value lattice (ROADMAP "batch
        # constraint joins").
        jump = self._jump
        batch_joins = 0
        with tracer.span("ide/phase2/ii"):
            for method in self.icfg.reachable_methods:
                start = self.icfg.start_point_of(method)
                # Start values looked up once per source fact per method, not
                # once per (statement, source fact) pair; targets_of memoizes
                # each jump function's value at them (keyed by the function,
                # so edge functions must be hashable).
                start_values: Dict[D, V] = {}
                targets_of: Dict[D, Dict[EdgeFunction[V], V]] = {}
                for stmt in method.instructions:
                    if stmt is start:
                        continue
                    rows = jump.get(stmt)
                    if rows is None:
                        continue
                    incoming: Dict[D, List[V]] = {}
                    for d1, row in rows.items():
                        start_value = start_values.get(d1)
                        if start_value is None:
                            start_value = start_values[d1] = values.get(
                                (start, d1), top
                            )
                            targets_of[d1] = {}
                        if start_value == top:
                            continue
                        targets = targets_of[d1]
                        for d2, f in row.items():
                            target = targets.get(f)
                            if target is None:
                                target = targets[f] = f.compute_target(start_value)
                            contributions = incoming.get(d2)
                            if contributions is None:
                                contributions = incoming[d2] = []
                            contributions.append(target)
                    for d2, contributions in incoming.items():
                        if len(contributions) == 1:
                            set_value(stmt, d2, contributions[0])
                        else:
                            batch_joins += 1
                            set_value(
                                stmt,
                                d2,
                                self.problem.join_all_values(contributions),
                            )
        self.stats["value_updates"] += value_updates
        self.stats["value_batch_joins"] += batch_joins
        return values
