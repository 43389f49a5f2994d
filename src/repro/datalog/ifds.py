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
is the same mathematical object phase I of :class:`IDESolver` computes:
``path_edge(d1, n, d2) @ c`` is the jump function ``λv. v ∧ c``.  The
solver re-indexes it into jump rows of interned edges and hands them to
the IDE solver's own phase II (:func:`repro.ide.solver.compute_values`).
BDD constraints are canonical, so the values — and therefore
``result_digest()`` — come out bit-identical to tabulation's.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple, TypeVar

from repro.constraints.base import Constraint
from repro.datalog.engine import Relation, Rule, SemiNaiveEvaluator
from repro.ide.edgefunctions import EdgeFunction
from repro.ide.solver import IDEResults, compute_values
from repro.ir.icfg import CALL, EXIT, EXIT_WITH_SUCCESSORS, NORMAL
from repro.ir.instructions import Instruction
from repro.ir.program import IRMethod
from repro.obs import runtime as obs

__all__ = ["DatalogSolver"]

D = TypeVar("D", bound=Hashable)


class DatalogSolver:
    """Solve a :class:`~repro.core.lifting.LiftedProblem` by rule
    evaluation instead of tabulation; the value phase is the IDE
    solver's.

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
        # Phase II adds its counters here.
        self.stats: Dict[str, int] = {"value_updates": 0, "value_batch_joins": 0}
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
        # Exploded-edge memos: flow targets and labels depend on
        # (statement, fact), never on d1, and semi-naive evaluation fires
        # a tuple again each time its constraint grows, so each (n, d2) is
        # computed once and replayed.
        self._normal_cache: Dict[Tuple[Instruction, D], tuple] = {}
        self._c2r_cache: Dict[Tuple[Instruction, D], tuple] = {}
        self._call_cache: Dict[Tuple[Instruction, D], tuple] = {}
        self._return_cache: Dict[Tuple[Instruction, Instruction, D], tuple] = {}
        # Flow functions are pure per ICFG edge, so each is built once,
        # keyed like the tabulation solvers' flow caches, and applied on
        # every memo miss at that edge.
        self._flow_cache: Dict[tuple, object] = {}

    # ==================================================================
    # Exploded-edge memos
    # ==================================================================

    def _normal_exploded(self, n: Instruction, d2: D) -> tuple:
        key = (n, d2)
        exploded = self._normal_cache.get(key)
        if exploded is None:
            flow_cache = self._flow_cache
            entries = []
            for succ in self.icfg.successors_of(n):
                fkey = ("normal", n, succ)
                flow = flow_cache.get(fkey)
                if flow is None:
                    flow = flow_cache[fkey] = self.problem.normal_flow(n, succ)
                for d3, edge in flow.compute_targets(d2).items():
                    entries.append((succ, d3, edge.constraint))
            exploded = self._normal_cache[key] = tuple(entries)
        return exploded

    def _c2r_exploded(self, call: Instruction, d2: D) -> tuple:
        key = (call, d2)
        exploded = self._c2r_cache.get(key)
        if exploded is None:
            flow_cache = self._flow_cache
            entries = []
            for return_site in self.icfg.return_sites_of(call):
                fkey = ("c2r", call, return_site)
                flow = flow_cache.get(fkey)
                if flow is None:
                    flow = flow_cache[fkey] = self.problem.call_to_return_flow(
                        call, return_site
                    )
                for d3, edge in flow.compute_targets(d2).items():
                    entries.append((return_site, d3, edge.constraint))
            exploded = self._c2r_cache[key] = tuple(entries)
        return exploded

    def _call_targets(self, call: Instruction, d2: D) -> tuple:
        """``(callee, callee start, ((entry fact, call edge), ...))`` per
        callee with an entry fact for ``(call, d2)``: the shape IDE phase
        II reads (memoized)."""
        key = (call, d2)
        targets = self._call_cache.get(key)
        if targets is None:
            flow_cache = self._flow_cache
            entries = []
            for callee in self.icfg.callees_of(call):
                fkey = ("call", call, callee)
                flow = flow_cache.get(fkey)
                if flow is None:
                    flow = flow_cache[fkey] = self.problem.call_flow(call, callee)
                entry_edges = tuple(flow.compute_targets(d2).items())
                if entry_edges:
                    entries.append(
                        (callee, self.icfg.start_point_of(callee), entry_edges)
                    )
            targets = self._call_cache[key] = tuple(entries)
        return targets

    def _return_exploded(
        self, call: Instruction, callee: IRMethod, exit_stmt: Instruction, d4: D
    ) -> tuple:
        key = (call, exit_stmt, d4)
        exploded = self._return_cache.get(key)
        if exploded is None:
            flow_cache = self._flow_cache
            entries = []
            for return_site in self.icfg.return_sites_of(call):
                fkey = ("return", call, exit_stmt, return_site)
                flow = flow_cache.get(fkey)
                if flow is None:
                    flow = flow_cache[fkey] = self.problem.return_flow(
                        call, callee, exit_stmt, return_site
                    )
                for d5, edge in flow.compute_targets(d4).items():
                    entries.append((return_site, d5, edge.constraint))
            exploded = self._return_cache[key] = tuple(entries)
        return exploded

    # ==================================================================
    # Join indexes (first-insertion hooks)
    # ==================================================================

    def _index_path_edge(self, key) -> None:
        d1, n, d2 = key
        kind = self.icfg.kinds[n]
        if kind == CALL:
            callers = self._caller_index.get((n, d2))
            if callers is None:
                callers = self._caller_index[(n, d2)] = []
            callers.append(d1)
        elif kind != NORMAL:  # an exit (with or without successors)
            context = (self.icfg.method_of(n), d1)
            exits = self._exit_index.get(context)
            if exits is None:
                exits = self._exit_index[context] = []
            exits.append((n, d2))

    def _index_call_fact(self, key) -> None:
        call, d2 = key
        for callee, _start, entry_edges in self._call_targets(call, d2):
            for d3, call_edge in entry_edges:
                contexts = self._context_index.get((callee, d3))
                if contexts is None:
                    contexts = self._context_index[(callee, d3)] = []
                contexts.append((call, d2, call_edge.constraint))

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
        kinds = self.icfg.kinds
        for (d1, n, d2), c in delta.items():
            kind = kinds[n]
            if kind != NORMAL and kind != EXIT_WITH_SUCCESSORS:
                continue
            for succ, d3, label in self._normal_exploded(n, d2):
                contribute((d1, succ, d3), c & label)

    def _fire_call_to_return(self, _relation, delta) -> None:
        contribute = self.path_edges.contribute
        kinds = self.icfg.kinds
        for (d1, n, d2), c in delta.items():
            if kinds[n] != CALL:
                continue
            for return_site, d3, label in self._c2r_exploded(n, d2):
                contribute((d1, return_site, d3), c & label)

    def _fire_call(self, _relation, delta) -> None:
        """Seed callee contexts and derive ``call_fact`` tuples."""
        true = self.system.true
        seed = self.path_edges.contribute
        fact = self.call_facts.contribute
        kinds = self.icfg.kinds
        for (d1, n, d2), _c in delta.items():
            if kinds[n] != CALL:
                continue
            for _callee, start, entry_edges in self._call_targets(n, d2):
                for d3, _edge in entry_edges:
                    seed((d3, start, d3), true)
            fact((n, d2), true)

    def _fire_summary(self, relation, delta) -> None:
        """Derive summary edges; fired from either side of the join."""
        contribute = self.summary_edges.contribute
        if relation is self.call_facts:
            # New call contexts against all stored exit path edges.
            pe = self.path_edges.tuples
            for (call, d2) in delta:
                for callee, _start, entry_edges in self._call_targets(call, d2):
                    for d3, call_edge in entry_edges:
                        label_call = call_edge.constraint
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
        kinds = self.icfg.kinds
        for (d1, n, d2), c_exit in delta.items():
            kind = kinds[n]
            if kind != EXIT and kind != EXIT_WITH_SUCCESSORS:
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
        kinds = self.icfg.kinds
        for (d1, call, d2), c in delta.items():
            if kinds[call] != CALL:
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
                values = compute_values(
                    self.problem, self._jump_rows(), self._call_targets, self.stats
                )
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

    def _jump_rows(self) -> Dict[Instruction, Dict[D, Dict[D, EdgeFunction]]]:
        """``path_edge`` as phase II's jump rows: ``stmt -> d1 -> d2 ->``
        the interned edge ``λv. v ∧ c`` of the tuple's constraint ``c``."""
        edge = self.problem.edge_table.edge
        jump: Dict[Instruction, Dict[D, Dict[D, EdgeFunction]]] = {}
        for (d1, n, d2), c in self.path_edges.tuples.items():
            rows = jump.get(n)
            if rows is None:
                rows = jump[n] = {}
            row = rows.get(d1)
            if row is None:
                row = rows[d1] = {}
            row[d2] = edge(c)
        return jump
