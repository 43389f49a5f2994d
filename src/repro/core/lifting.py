"""The SPLLIFT lifting: any IFDS problem becomes an IDE problem over
feature constraints — without changing a line of the original analysis.

Section 3 of the paper.  For a statement ``s`` annotated with feature
constraint ``F``, the lifted flow function is ``f_LIFT = f_F ∨ f_¬F``:

- **enabled case** ``f_F``: a copy of the statement's original flow
  function with every edge labeled ``F``;
- **disabled case** ``f_¬F``:
  - the identity labeled ``¬F`` for normal statements and call-to-return
    edges (Figure 4a),
  - flow only along the *fall-through* branch for disabled conditional and
    unconditional branches (Figures 4b, 4c),
  - the **kill-all** function for call and return edges (Figure 4d) — an
    identity there would smuggle flow into a callee whose call never
    happens.

Edges annotated ``F`` in one case and ``¬F`` in the other are implicitly
annotated ``true``.  Edge labels become IDE edge functions ``λc. c ∧ F``;
composition along a path conjoins, merging paths disjoins (Section 3.4).
0-edges are conditionalized like any other edge, so the analysis computes
reachability constraints as a side effect (Section 3.5).

With a feature model ``m`` (Section 4.2), every edge label ``f`` becomes
``f ∧ m``; contradictions reduce to ``false`` (= the all-top edge
function), which the IDE solver drops — terminating infeasible paths
already during the jump-function construction phase.  A label depends
only on its statement, so each distinct label is conjoined with ``m``
(and each condition negated) once per problem, not once per exploded
edge.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, TypeVar

from repro.constraints.base import Constraint, ConstraintSystem
from repro.constraints.formula import Formula
from repro.core.icfg import LiftedICFG
from repro.ide.edgefunctions import AllTop, EdgeFunction
from repro.ide.problem import IDEProblem
from repro.ifds.flowfunctions import FlowFunction, Identity, Union
from repro.ifds.problem import IFDSProblem
from repro.ir.instructions import Goto, If, Instruction, Return
from repro.ir.program import IRMethod

__all__ = ["ConstraintEdge", "EdgeFunctionTable", "LiftedProblem", "FM_MODES"]

D = TypeVar("D", bound=Hashable)

#: How the feature model is taken into account (Section 4.2):
#: - "edge": conjoin the model onto every edge label (the paper's choice —
#:   early termination already in the construction phase);
#: - "seed": keep edges model-free, start the value phase from the model
#:   constraint instead of true (the paper's rejected first attempt);
#: - "ignore": do not use the feature model at all.
FM_MODES = ("edge", "seed", "ignore")


class ConstraintEdge(EdgeFunction[Constraint]):
    """The edge function ``λc. c ∧ A`` for a feature constraint ``A``.

    This family is closed under the IDE operations — composition conjoins
    and join disjoins the constants — and equality is constant time thanks
    to the canonical BDD representation.

    Every edge is a *flyweight* of its :class:`EdgeFunctionTable`: one
    unique instance per distinct constraint (build them with
    :meth:`EdgeFunctionTable.edge`), so semantic equality degenerates to
    ``a is b``, and compose/join results are memoized and interned into
    the same table.
    """

    __slots__ = ("constraint", "_table", "is_top", "_memo_compose", "_memo_join")

    def __init__(self, constraint: Constraint, table: "EdgeFunctionTable") -> None:
        self.constraint = constraint
        self._table = table
        # λc. c ∧ false maps everything to top ("no flow"): precomputing the
        # flag lets the solver drop such edges with one attribute load.
        self.is_top = constraint.is_false
        # Per-edge memo tables keyed on the *other* interned operand
        # (identity hash — interning makes instances unique per constraint).
        # Both operands record the result so the commutative mirror hits.
        self._memo_compose: Dict["ConstraintEdge", "ConstraintEdge"] = {}
        self._memo_join: Dict["ConstraintEdge", "ConstraintEdge"] = {}

    def compute_target(self, source: Constraint) -> Constraint:
        return source & self.constraint

    def compose_with(self, second: EdgeFunction[Constraint]) -> EdgeFunction[Constraint]:
        if isinstance(second, ConstraintEdge):
            table = self._table
            memo = self._memo_compose
            cached = memo.get(second)
            if cached is not None:
                table.compose_hits += 1
                return cached
            table.compose_misses += 1
            result = table.edge(self.constraint & second.constraint)
            memo[second] = result
            second._memo_compose[self] = result
            return result
        if isinstance(second, AllTop):
            return second
        raise TypeError(f"cannot compose ConstraintEdge with {second!r}")

    def join_with(self, other: EdgeFunction[Constraint]) -> EdgeFunction[Constraint]:
        if other is self:
            return self
        if isinstance(other, ConstraintEdge):
            table = self._table
            memo = self._memo_join
            cached = memo.get(other)
            if cached is not None:
                table.join_hits += 1
                return cached
            table.join_misses += 1
            result = table.edge(self.constraint | other.constraint)
            memo[other] = result
            other._memo_join[self] = result
            return result
        if isinstance(other, AllTop):
            return self
        raise TypeError(f"cannot join ConstraintEdge with {other!r}")

    def equal_to(self, other: EdgeFunction[Constraint]) -> bool:
        if isinstance(other, ConstraintEdge):
            return other.constraint == self.constraint
        if isinstance(other, AllTop):
            return self.constraint.is_false
        return False

    def __repr__(self) -> str:
        return f"λc. c ∧ ({self.constraint})"


class EdgeFunctionTable:
    """Per-problem flyweight intern table for :class:`ConstraintEdge`.

    The paper attributes SPLLIFT's constant factors to cheap canonical
    constraint operations (Section 5): equality and ``is false`` are
    constant time on BDDs, and conjunction/disjunction are memoized.  This
    table provides the same dividends at the edge-function level:
    :meth:`edge` interns one unique edge per distinct constraint, so the
    solver's fixed-point check is ``a is b``, and each edge memoizes its
    compose/join results keyed on the other operand's identity (valid
    precisely because operands are interned).  Underneath, the
    constraint operation itself still hits the BDD manager's apply cache;
    the memo avoids even that descent plus the re-wrapping on repeat
    compositions along hot paths.

    Hit/miss counters are exported into ``IDESolver.stats`` via
    :meth:`LiftedProblem.edge_cache_stats`.
    """

    __slots__ = (
        "system",
        "_edges",
        "compose_hits",
        "compose_misses",
        "join_hits",
        "join_misses",
    )

    def __init__(self, system: ConstraintSystem) -> None:
        self.system = system
        self._edges: Dict[Constraint, ConstraintEdge] = {}
        self.compose_hits = 0
        self.compose_misses = 0
        self.join_hits = 0
        self.join_misses = 0

    def edge(self, constraint: Constraint) -> ConstraintEdge:
        """The unique interned edge function ``λc. c ∧ constraint``."""
        interned = self._edges.get(constraint)
        if interned is None:
            interned = ConstraintEdge(constraint, self)
            self._edges[constraint] = interned
        return interned

    def cache_stats(self) -> Dict[str, int]:
        """Counters in the shape ``IDESolver.stats`` reports them."""
        return {
            "compose_cache_hits": self.compose_hits,
            "compose_cache_misses": self.compose_misses,
            "join_cache_hits": self.join_hits,
            "join_cache_misses": self.join_misses,
            "interned_edges": len(self._edges),
        }


class LiftedProblem(IDEProblem[D, Constraint]):
    """The automatic IFDS→IDE conversion (the ``SPLLIFT`` transformation).

    Wraps an unmodified :class:`~repro.ifds.problem.IFDSProblem`; the
    wrapped analysis' flow functions are consulted for the enabled case of
    every statement, and this class supplies the Figure 4 rules plus the
    constraint edge functions.
    """

    def __init__(
        self,
        inner: IFDSProblem[D],
        system: ConstraintSystem,
        feature_model: Optional[Constraint] = None,
        fm_mode: str = "edge",
    ) -> None:
        if fm_mode not in FM_MODES:
            raise ValueError(f"fm_mode must be one of {FM_MODES}, got {fm_mode!r}")
        icfg = inner.icfg
        if not isinstance(icfg, LiftedICFG):
            icfg = LiftedICFG(icfg)
            inner.icfg = icfg
        super().__init__(icfg)
        self.inner = inner
        self.system = system
        self.fm_mode = fm_mode
        self.feature_model = (
            feature_model if feature_model is not None else system.true
        )
        self._edge_label_fm = (
            self.feature_model if fm_mode == "edge" else system.true
        )
        self._formula_cache: Dict[Formula, Constraint] = {}
        self._declare_annotation_variables()
        self._inner_flow_cache: Dict[tuple, object] = {}
        self.edge_table = EdgeFunctionTable(system)
        # label -> its interned edge (label ∧ m), and condition -> ¬condition;
        # both filled as the solver asks, so no unused edge is built.
        self._label_edges: Dict[Constraint, ConstraintEdge] = {}
        self._negations: Dict[Constraint, Constraint] = {}
        self._true_edge = self._edge(system.true)
        self._seed_edge = self.edge_table.edge(system.true)

    # ------------------------------------------------------------------
    # Constraint helpers
    # ------------------------------------------------------------------

    def _declare_annotation_variables(self) -> None:
        """Declare every annotation variable up front, in program order.

        The solver would otherwise declare variables lazily in worklist
        order, which makes the BDD variable order — and therefore the
        rendered constraint strings — depend on how the solve was
        scheduled whenever a feature is missing from the feature model.
        Declaring deterministically (feature model first, then
        annotations in statement order, alphabetical within a formula)
        is what keeps every worklist order rendering bit-identical
        constraints, and keeps them identical across processes, which
        cross-process records rely on: stored summaries decoded into a
        warm solve, and batch results compared with direct solves.
        """
        from collections import deque

        icfg = self.icfg
        # Entry-first breadth-first method order — the order the solver
        # itself discovers code, so pre-declaration reproduces the
        # variable order lazy declaration produced for default solves.
        seen = set()
        queue = deque(icfg.entry_points)
        ordered = []
        while queue:
            method = queue.popleft()
            if method in seen:
                continue
            seen.add(method)
            ordered.append(method)
            for stmt in method.instructions:
                if icfg.is_call(stmt):
                    queue.extend(icfg.callees_of(stmt))
        ordered.extend(m for m in icfg.reachable_methods if m not in seen)
        var = self.system.var
        for method in ordered:
            for stmt in method.instructions:
                formula = stmt.annotation
                if formula is not None:
                    for name in sorted(formula.variables()):
                        var(name)

    def constraint_of(self, stmt: Instruction) -> Constraint:
        """The statement's feature annotation as a constraint (``true`` if
        unannotated)."""
        formula = stmt.annotation
        if formula is None:
            return self.system.true
        cached = self._formula_cache.get(formula)
        if cached is None:
            cached = self.system.from_formula(formula)
            self._formula_cache[formula] = cached
        return cached

    def _edge(self, label: Constraint) -> ConstraintEdge:
        """The interned edge function for label ``f``, implicitly conjoined
        with the feature model ``m`` in "edge" mode (Section 4.2)."""
        edge = self._label_edges.get(label)
        if edge is None:
            edge = self._label_edges[label] = self.edge_table.edge(
                label & self._edge_label_fm
            )
        return edge

    def _negation(self, condition: Constraint) -> Constraint:
        """``¬condition``, the disabled-case label (Figure 4)."""
        negated = self._negations.get(condition)
        if negated is None:
            negated = self._negations[condition] = ~condition
        return negated

    def edge_cache_stats(self) -> Dict[str, int]:
        """Edge-algebra and BDD substrate counters (merged into
        ``IDESolver.stats``)."""
        stats = self.edge_table.cache_stats()
        solver_stats = getattr(self.system, "solver_stats", None)
        if solver_stats is not None:
            stats.update(solver_stats())
        return stats

    # ------------------------------------------------------------------
    # Value lattice
    # ------------------------------------------------------------------

    def top_value(self) -> Constraint:
        return self.system.false

    def bottom_value(self) -> Constraint:
        return self.system.true

    def join_values(self, left: Constraint, right: Constraint) -> Constraint:
        return left | right

    def join_all_values(self, values) -> Constraint:
        # Batch constraint join: one n-ary disjunction on the manager
        # instead of a pairwise fold (ROADMAP "batch constraint joins").
        return self.system.or_all(values)

    def seed_edge_function(self) -> EdgeFunction[Constraint]:
        return self._seed_edge

    def initial_seeds(self):
        return self.inner.initial_seeds()

    def initial_seed_values(self):
        # "seed" mode implements the paper's rejected variant: the start
        # value is the feature model instead of true (Section 4.2).
        seed = (
            self.feature_model if self.fm_mode == "seed" else self.system.true
        )
        return {
            stmt: {fact: seed for fact in facts}
            for stmt, facts in self.initial_seeds().items()
        }

    # ------------------------------------------------------------------
    # Flow functions: which exploded-graph edges exist (f_F ∨ f_¬F)
    # ------------------------------------------------------------------

    def normal_flow(self, stmt: Instruction, succ: Instruction) -> FlowFunction[D]:
        if stmt.annotation is None:
            if isinstance(stmt, Return):
                # Unannotated returns have no successors; nothing to do.
                return Identity()
            return self.inner.normal_flow(stmt, succ)
        fall_through = LiftedICFG.fall_through_of(stmt)
        target = LiftedICFG.branch_target_of(stmt)
        if isinstance(stmt, Goto):
            # Enabled: flow to the target only; disabled: fall through.
            flows = []
            if succ is target:
                flows.append(self.inner.normal_flow(stmt, succ))
            if succ is fall_through:
                flows.append(Identity())
            return _union(flows)
        if isinstance(stmt, If):
            if succ is target and succ is not fall_through:
                return self.inner.normal_flow(stmt, succ)
            # Fall-through: enabled normal flow or disabled identity.
            return _union([self.inner.normal_flow(stmt, succ), Identity()])
        if isinstance(stmt, Return):
            # Only reached for annotated returns: disabled → fall through.
            return Identity()
        # Normal statement: enabled effect or disabled identity (Fig. 4a).
        return _union([self.inner.normal_flow(stmt, succ), Identity()])

    def call_flow(self, call: Instruction, callee: IRMethod) -> FlowFunction[D]:
        # Disabled case is kill-all (Fig. 4d), which adds no edges.
        return self.inner.call_flow(call, callee)

    def return_flow(
        self,
        call: Instruction,
        callee: IRMethod,
        exit_stmt: Instruction,
        return_site: Instruction,
    ) -> FlowFunction[D]:
        # Disabled case is kill-all (Fig. 4d).
        return self.inner.return_flow(call, callee, exit_stmt, return_site)

    def call_to_return_flow(
        self, call: Instruction, return_site: Instruction
    ) -> FlowFunction[D]:
        inner_flow = self.inner.call_to_return_flow(call, return_site)
        if call.annotation is None:
            return inner_flow
        # Enabled: the analysis' call-to-return flow; disabled: identity
        # (the call does not happen, locals survive unchanged) — Fig. 4a.
        return _union([inner_flow, Identity()])

    # ------------------------------------------------------------------
    # Edge functions: the constraint labels of Figure 4
    # ------------------------------------------------------------------

    def edge_normal(
        self, stmt: Instruction, stmt_fact: D, succ: Instruction, succ_fact: D
    ) -> EdgeFunction[Constraint]:
        if stmt.annotation is None:
            return self._true_edge
        condition = self.constraint_of(stmt)
        fall_through = LiftedICFG.fall_through_of(stmt)
        target = LiftedICFG.branch_target_of(stmt)
        if isinstance(stmt, Goto):
            enabled = succ is target and self._in_inner_normal(
                stmt, stmt_fact, succ, succ_fact
            )
            disabled = succ is fall_through and succ_fact == stmt_fact
            return self._label(condition, enabled, disabled)
        if isinstance(stmt, If):
            if succ is target and succ is not fall_through:
                # Branch taken: only possible when enabled (Fig. 4c).
                return self._edge(condition)
            enabled = self._in_inner_normal(stmt, stmt_fact, succ, succ_fact)
            disabled = succ_fact == stmt_fact
            return self._label(condition, enabled, disabled)
        if isinstance(stmt, Return):
            # Synthetic fall-through edge: the disabled case only.
            return self._edge(self._negation(condition))
        enabled = self._in_inner_normal(stmt, stmt_fact, succ, succ_fact)
        disabled = succ_fact == stmt_fact
        return self._label(condition, enabled, disabled)

    def _in_inner_normal(
        self, stmt: Instruction, stmt_fact: D, succ: Instruction, succ_fact: D
    ) -> bool:
        # One flow-function construction per (stmt, succ), not per exploded
        # edge — inner analyses build a fresh object on every call.
        key = (stmt, succ)
        flow = self._inner_flow_cache.get(key)
        if flow is None:
            flow = self._inner_flow_cache[key] = self.inner.normal_flow(stmt, succ)
        return succ_fact in flow.compute_targets(stmt_fact)

    def _label(
        self, condition: Constraint, enabled: bool, disabled: bool
    ) -> EdgeFunction[Constraint]:
        """Combine the enabled-case label ``F`` and disabled-case label
        ``¬F`` for one edge; present in both cases means ``true``."""
        if enabled and disabled:
            return self._true_edge
        if enabled:
            return self._edge(condition)
        if disabled:
            return self._edge(self._negation(condition))
        # The solver only asks for edges produced by the flow functions,
        # so at least one case must apply.
        raise AssertionError("edge label requested for a non-existent edge")

    def edge_call(
        self, call: Instruction, call_fact: D, callee: IRMethod, entry_fact: D
    ) -> EdgeFunction[Constraint]:
        if call.annotation is None:
            return self._true_edge
        return self._edge(self.constraint_of(call))

    def edge_return(
        self,
        call: Instruction,
        callee: IRMethod,
        exit_stmt: Instruction,
        exit_fact: D,
        return_site: Instruction,
        return_fact: D,
    ) -> EdgeFunction[Constraint]:
        # The flow happens only if the call occurs *and* the exit statement
        # itself is enabled (an annotated return that is disabled falls
        # through instead of returning).
        label = self.constraint_of(call) & self.constraint_of(exit_stmt)
        if label.is_true:
            return self._true_edge
        return self._edge(label)

    def edge_call_to_return(
        self, call: Instruction, call_fact: D, return_site: Instruction, return_fact: D
    ) -> EdgeFunction[Constraint]:
        if call.annotation is None:
            return self._true_edge
        condition = self.constraint_of(call)
        flow = self.inner.call_to_return_flow(call, return_site)
        enabled = return_fact in flow.compute_targets(call_fact)
        disabled = return_fact == call_fact
        return self._label(condition, enabled, disabled)


def _union(flows) -> FlowFunction:
    """Union of flow functions, avoiding the wrapper for a single one."""
    flows = [flow for flow in flows if flow is not None]
    if not flows:
        from repro.ifds.flowfunctions import KillAll

        return KillAll()
    if len(flows) == 1:
        return flows[0]
    return Union(*flows)
