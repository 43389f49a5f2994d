"""Compile a lifted IFDS problem to Datalog rules and solve it.

The tabulation solver's jump function at ``(n, d1, d2)`` is, in the
lifted domain, fully described by one feature constraint — the
disjunction over same-level paths from ``(sp, d1)`` to ``(n, d2)`` of
the conjunction of edge labels along each path.  That is exactly a
lifted-Datalog relation::

    path_edge(d1, n, d2) @ c        # c = the jump function's constant
    call_fact(call, d2) @ true      # some context reaches the call site
    summary_edge(call, d2, rs, d5) @ s

with the IDE flow cases as rules (labels written ``L⋅``):

- **seed**      ``path_edge(d, sp, d) @ true`` for every initial seed;
- **normal**    ``path_edge(d1, n, d2) @ c ⟹
                path_edge(d1, succ, d3) @ c ∧ L_normal(n, d2, succ, d3)``;
- **call-to-return** — the same shape across the call site;
- **call**      ``path_edge(d1, call, d2) @ c ⟹
                path_edge(d3, sp_p, d3) @ true`` for every callee entry
                fact ``d3`` (callee contexts are seeded unconditionally,
                like the tabulation solver; the caller's constraint is
                re-applied by the summary rule), plus
                ``call_fact(call, d2) @ true``;
- **summary**   ``call_fact(call, d2) ∧ path_edge(d3, e, d4) @ cₑ ⟹
                summary_edge(call, d2, rs, d5)
                @ L_call(call, d2, p, d3) ∧ cₑ ∧ L_ret(call, p, e, d4, rs, d5)``
                for exits ``e`` of the callee ``p``;
- **apply**     ``path_edge(d1, call, d2) @ c ∧
                summary_edge(call, d2, rs, d5) @ s ⟹
                path_edge(d1, rs, d5) @ c ∧ s``.

Each label is the constraint of the edge function the lifted flow maps
the target to, so one flow application derives a tuple together with
its presence condition, as in lifted Datalog.

The five rules are mutually recursive, so they form one stratum;
evaluation is semi-naive over the engine's delta stores.  The fixpoint
is the same mathematical object phase I of :class:`IDESolver` computes,
and BDD constraints are canonical, so the phase-II values — and
therefore ``result_digest()`` — come out bit-identical.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, List, Optional, Tuple, TypeVar

from repro.constraints.base import Constraint
from repro.datalog.engine import Relation, Rule, SemiNaiveEvaluator
from repro.ide.solver import IDEResults
from repro.ir.instructions import Instruction
from repro.ir.program import IRMethod
from repro.obs import runtime as obs

__all__ = ["DatalogSolver"]

D = TypeVar("D", bound=Hashable)

#: Statement kinds, resolved once per statement (the tabulation solver's
#: classification): 0 normal, 1 call, 2 exit, 3 exit-with-successors
#: (a disabled annotated ``return`` falls through, so the node is both
#: an exit and a normal statement).
_NORMAL, _CALL, _EXIT, _EXIT_FLOW = 0, 1, 2, 3


class DatalogSolver:
    """Solve a :class:`~repro.core.lifting.LiftedProblem` by rule
    evaluation instead of tabulation.

    The problem's flows map each target to a ``λc. c ∧ A`` edge (every
    lifted problem's do); its ``constraint`` attribute is the label the
    rules conjoin, read off the targets with the facts themselves.
    """

    def __init__(self, problem) -> None:
        self.problem = problem
        self.icfg = problem.icfg
        self.system = problem.system
        self.path_edges = Relation("path_edge")
        self.call_facts = Relation("call_fact")
        self.summary_edges = Relation("summary_edge")
        self.stats: Dict[str, int] = {}
        # Join indexes, maintained by first-insertion hooks:
        # (callee, entry fact) -> [(exit stmt, exit fact)]
        self._exit_index: Dict[Tuple[IRMethod, D], List[Tuple[Instruction, D]]] = {}
        # (callee, entry fact) -> [(call, call fact, call label)]
        self._context_index: Dict[
            Tuple[IRMethod, D], List[Tuple[Instruction, D, Constraint]]
        ] = {}
        # (call, call fact) -> [caller source fact d1]
        self._caller_index: Dict[Tuple[Instruction, D], List[D]] = {}
        # (call, call fact) -> [(return site, d5)]
        self._summary_index: Dict[Tuple[Instruction, D], List[Tuple[Instruction, D]]] = {}
        self.path_edges.on_insert = self._index_path_edge
        self.call_facts.on_insert = self._index_call_fact
        self.summary_edges.on_insert = self._index_summary_edge
        # Exploded-edge caches, mirroring the tabulation solver's: flow
        # functions and labels depend on (statement, fact), never on d1.
        self._kind_cache: Dict[Instruction, int] = {}
        self._normal_cache: Dict[Tuple[Instruction, D], tuple] = {}
        self._c2r_cache: Dict[Tuple[Instruction, D], tuple] = {}
        self._call_cache: Dict[Tuple[Instruction, D], tuple] = {}
        self._return_cache: Dict[Tuple[Instruction, Instruction, D], tuple] = {}

    # ==================================================================
    # Statement classification and exploded-edge caches
    # ==================================================================

    def _kind(self, n: Instruction) -> int:
        kind = self._kind_cache.get(n)
        if kind is None:
            if self.icfg.is_call(n):
                kind = _CALL
            elif self.icfg.is_exit(n):
                kind = _EXIT_FLOW if self.icfg.successors_of(n) else _EXIT
            else:
                kind = _NORMAL
            self._kind_cache[n] = kind
        return kind

    def _normal_exploded(self, n: Instruction, d2: D) -> tuple:
        key = (n, d2)
        exploded = self._normal_cache.get(key)
        if exploded is None:
            problem = self.problem
            entries = []
            for succ in self.icfg.successors_of(n):
                flow = problem.normal_flow(n, succ)
                for d3, edge in flow.compute_targets(d2).items():
                    entries.append((succ, d3, edge.constraint))
            exploded = self._normal_cache[key] = tuple(entries)
        return exploded

    def _c2r_exploded(self, call: Instruction, d2: D) -> tuple:
        key = (call, d2)
        exploded = self._c2r_cache.get(key)
        if exploded is None:
            problem = self.problem
            entries = []
            for return_site in self.icfg.return_sites_of(call):
                flow = problem.call_to_return_flow(call, return_site)
                for d3, edge in flow.compute_targets(d2).items():
                    entries.append((return_site, d3, edge.constraint))
            exploded = self._c2r_cache[key] = tuple(entries)
        return exploded

    def _call_targets(self, call: Instruction, d2: D) -> tuple:
        """``(callee, callee start, ((entry fact, call label), ...))``
        triples for ``(call, d2)``."""
        key = (call, d2)
        targets = self._call_cache.get(key)
        if targets is None:
            entries = []
            for callee in self.icfg.callees_of(call):
                flow = self.problem.call_flow(call, callee)
                entry_labels = tuple(
                    (d3, edge.constraint)
                    for d3, edge in flow.compute_targets(d2).items()
                )
                if entry_labels:
                    entries.append(
                        (callee, self.icfg.start_point_of(callee), entry_labels)
                    )
            targets = self._call_cache[key] = tuple(entries)
        return targets

    def _return_exploded(
        self, call: Instruction, callee: IRMethod, exit_stmt: Instruction, d4: D
    ) -> tuple:
        key = (call, exit_stmt, d4)
        exploded = self._return_cache.get(key)
        if exploded is None:
            problem = self.problem
            entries = []
            for return_site in self.icfg.return_sites_of(call):
                flow = problem.return_flow(call, callee, exit_stmt, return_site)
                for d5, edge in flow.compute_targets(d4).items():
                    entries.append((return_site, d5, edge.constraint))
            exploded = self._return_cache[key] = tuple(entries)
        return exploded

    # ==================================================================
    # Join indexes (first-insertion hooks)
    # ==================================================================

    def _index_path_edge(self, key) -> None:
        d1, n, d2 = key
        kind = self._kind(n)
        if kind == _CALL:
            callers = self._caller_index.get((n, d2))
            if callers is None:
                callers = self._caller_index[(n, d2)] = []
            callers.append(d1)
        elif kind != _NORMAL:  # an exit (with or without successors)
            context = (self.icfg.method_of(n), d1)
            exits = self._exit_index.get(context)
            if exits is None:
                exits = self._exit_index[context] = []
            exits.append((n, d2))

    def _index_call_fact(self, key) -> None:
        call, d2 = key
        for callee, _start, entry_labels in self._call_targets(call, d2):
            for d3, label in entry_labels:
                contexts = self._context_index.get((callee, d3))
                if contexts is None:
                    contexts = self._context_index[(callee, d3)] = []
                contexts.append((call, d2, label))

    def _index_summary_edge(self, key) -> None:
        call, d2, return_site, d5 = key
        summaries = self._summary_index.get((call, d2))
        if summaries is None:
            summaries = self._summary_index[(call, d2)] = []
        summaries.append((return_site, d5))

    # ==================================================================
    # Rules
    # ==================================================================

    def _fire_normal(self, _relation, delta) -> None:
        contribute = self.path_edges.contribute
        for (d1, n, d2), c in delta.items():
            kind = self._kind(n)
            if kind != _NORMAL and kind != _EXIT_FLOW:
                continue
            for succ, d3, label in self._normal_exploded(n, d2):
                contribute((d1, succ, d3), c & label)

    def _fire_call_to_return(self, _relation, delta) -> None:
        contribute = self.path_edges.contribute
        for (d1, n, d2), c in delta.items():
            if self._kind(n) != _CALL:
                continue
            for return_site, d3, label in self._c2r_exploded(n, d2):
                contribute((d1, return_site, d3), c & label)

    def _fire_call(self, _relation, delta) -> None:
        """Seed callee contexts and derive ``call_fact`` tuples."""
        true = self.system.true
        seed = self.path_edges.contribute
        fact = self.call_facts.contribute
        for (d1, n, d2), _c in delta.items():
            if self._kind(n) != _CALL:
                continue
            for _callee, start, entry_labels in self._call_targets(n, d2):
                for d3, _label in entry_labels:
                    seed((d3, start, d3), true)
            fact((n, d2), true)

    def _fire_summary(self, relation, delta) -> None:
        """Derive summary edges; fired from either side of the join."""
        contribute = self.summary_edges.contribute
        if relation is self.call_facts:
            # New call contexts against all stored exit path edges.
            pe = self.path_edges.tuples
            for (call, d2) in delta:
                for callee, _start, entry_labels in self._call_targets(call, d2):
                    for d3, label_call in entry_labels:
                        for exit_stmt, d4 in self._exit_index.get(
                            (callee, d3), ()
                        ):
                            c_exit = pe[(d3, exit_stmt, d4)]
                            for rs, d5, label_ret in self._return_exploded(
                                call, callee, exit_stmt, d4
                            ):
                                contribute(
                                    (call, d2, rs, d5),
                                    label_call & c_exit & label_ret,
                                )
            return
        # New exit path edges against all registered call contexts.
        for (d1, n, d2), c_exit in delta.items():
            kind = self._kind(n)
            if kind != _EXIT and kind != _EXIT_FLOW:
                continue
            callee = self.icfg.method_of(n)
            for call, call_fact, label_call in self._context_index.get(
                (callee, d1), ()
            ):
                for rs, d5, label_ret in self._return_exploded(
                    call, callee, n, d2
                ):
                    contribute(
                        (call, call_fact, rs, d5),
                        label_call & c_exit & label_ret,
                    )

    def _fire_apply(self, relation, delta) -> None:
        """Apply summary edges across call sites, from either side."""
        contribute = self.path_edges.contribute
        if relation is self.summary_edges:
            pe = self.path_edges.tuples
            for (call, d2, rs, d5), s in delta.items():
                for d1 in self._caller_index.get((call, d2), ()):
                    contribute((d1, rs, d5), pe[(d1, call, d2)] & s)
            return
        se = self.summary_edges.tuples
        for (d1, call, d2), c in delta.items():
            if self._kind(call) != _CALL:
                continue
            for rs, d5 in self._summary_index.get((call, d2), ()):
                contribute((d1, rs, d5), c & se[(call, d2, rs, d5)])

    # ==================================================================
    # Solve: rule evaluation, then the IDE value phase
    # ==================================================================

    def solve(self) -> IDEResults[D, Constraint]:
        tracer = obs.tracer()
        with tracer.span("datalog/solve"):
            with tracer.span("datalog/fixpoint"):
                evaluator = self._evaluate()
            with tracer.span("datalog/values"):
                values = self._compute_values()
        self.stats.update(evaluator.counters)
        self.stats.update(
            {
                "path_edges": len(self.path_edges),
                "call_facts": len(self.call_facts),
                "summary_edges": len(self.summary_edges),
            }
        )
        self.stats.update(self.problem.edge_cache_stats())
        obs.publish_stats("datalog", self.stats)
        return IDEResults(values, self.problem.top_value(), self.problem.zero)

    def _evaluate(self) -> SemiNaiveEvaluator:
        pe, cf, se = self.path_edges, self.call_facts, self.summary_edges
        evaluator = SemiNaiveEvaluator(self.system, (pe, cf, se))
        true = self.system.true
        for stmt, facts in self.problem.initial_seeds().items():
            for fact in facts:
                pe.contribute((fact, stmt, fact), true)
        rules = (
            Rule("normal", (pe,), self._fire_normal),
            Rule("call_to_return", (pe,), self._fire_call_to_return),
            Rule("call", (pe,), self._fire_call),
            Rule("summary", (cf, pe), self._fire_summary),
            Rule("apply", (pe, se), self._fire_apply),
        )
        evaluator.evaluate((rules,))
        return evaluator

    def _compute_values(self) -> Dict[Tuple[Instruction, D], Constraint]:
        """The IDE value phase over the solved ``path_edge`` relation.

        Identical math to ``IDESolver._compute_values`` — seeds flow to
        call sites and into callees (phase II(i)), then every node gets
        the batched join over its jump constraints (phase II(ii)) — with
        ``path_edge`` standing in for the jump-function tables.
        """
        problem = self.problem
        icfg = self.icfg
        top = problem.top_value()
        values: Dict[Tuple[Instruction, D], Constraint] = {}
        value_updates = 0

        def set_value(stmt: Instruction, fact: D, value: Constraint) -> bool:
            nonlocal value_updates
            key = (stmt, fact)
            old = values.get(key, top)
            joined = old | value
            if joined is old or joined == old:
                return False
            values[key] = joined
            value_updates += 1
            return True

        # path_edge re-indexed as stmt -> d1 -> {d2: constraint} (the
        # two-level jump index phase II iterates).
        jump: Dict[Instruction, Dict[D, Dict[D, Constraint]]] = {}
        for (d1, n, d2), c in self.path_edges.tuples.items():
            rows = jump.get(n)
            if rows is None:
                rows = jump[n] = {}
            row = rows.get(d1)
            if row is None:
                row = rows[d1] = {}
            row[d2] = c

        # Phase II(i): start points and call sites.
        worklist: Deque[Tuple[Instruction, D]] = deque()
        for stmt, fact_values in problem.initial_seed_values().items():
            for fact, value in fact_values.items():
                if set_value(stmt, fact, value):
                    worklist.append((stmt, fact))
        while worklist:
            n, d = worklist.popleft()
            value = values.get((n, d), top)
            method = icfg.method_of(n)
            if n is icfg.start_point_of(method):
                for call in icfg.call_sites_in(method):
                    rows = jump.get(call)
                    row = rows.get(d) if rows is not None else None
                    if not row:
                        continue
                    for d2, c in row.items():
                        if set_value(call, d2, value & c):
                            worklist.append((call, d2))
            if icfg.is_call(n):
                for _callee, start, entry_labels in self._call_targets(n, d):
                    for d3, label in entry_labels:
                        if set_value(start, d3, value & label):
                            worklist.append((start, d3))

        # Phase II(ii): every remaining node via its jump constraints,
        # merging contributions per (stmt, d2) with one batched or_all.
        batch_joins = 0
        for method in icfg.reachable_methods:
            start = icfg.start_point_of(method)
            start_values: Dict[D, Constraint] = {}
            for stmt in method.instructions:
                if stmt is start:
                    continue
                rows = jump.get(stmt)
                if rows is None:
                    continue
                incoming: Dict[D, List[Constraint]] = {}
                for d1, row in rows.items():
                    start_value = start_values.get(d1)
                    if start_value is None:
                        start_value = start_values[d1] = values.get(
                            (start, d1), top
                        )
                    if start_value == top:
                        continue
                    for d2, c in row.items():
                        contributions = incoming.get(d2)
                        if contributions is None:
                            contributions = incoming[d2] = []
                        contributions.append(start_value & c)
                for d2, contributions in incoming.items():
                    if len(contributions) == 1:
                        set_value(stmt, d2, contributions[0])
                    else:
                        batch_joins += 1
                        set_value(
                            stmt, d2, problem.join_all_values(contributions)
                        )
        self.stats["value_updates"] = value_updates
        self.stats["value_batch_joins"] = batch_joins
        return values
