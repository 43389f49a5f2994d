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

Each lifted flow function maps its targets to their edge functions (the
contract of :mod:`repro.ide.problem`), so the case that makes an exploded
edge exist is the case that labels it: the wrapped analysis' flow is
applied once per fact, and a target of the enabled flow alone reads
``F``, the fact kept by the disabled identity alone ``¬F``.

With a feature model ``m`` (Section 4.2), every edge label ``f`` becomes
``f ∧ m``; contradictions reduce to ``false`` (= the all-top edge
function), which the IDE solver drops — terminating infeasible paths
already during the jump-function construction phase.  A label depends
only on its statement (a return edge's on its call and exit), so each
distinct label is conjoined with ``m`` (and each condition negated) once
per problem, on the first edge that carries it, not once per exploded
edge.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional, Tuple, TypeVar

from repro.constraints.base import Constraint, ConstraintSystem
from repro.constraints.formula import Formula
from repro.core.icfg import LiftedICFG
from repro.ide.edgefunctions import AllTop, EdgeFunction
from repro.ide.problem import IDEProblem, UniformEdges
from repro.ifds.flowfunctions import FlowFunction, Identity
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
    wrapped analysis' flow functions give the enabled case of every
    statement, and this class labels each of their targets (and the
    disabled case's) by the Figure 4 rule for the statement's class.
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
        self.edge_table = EdgeFunctionTable(system)
        # label -> its interned edge (label ∧ m), condition -> ¬condition and
        # (call, exit) -> the return edge; filled on the first edge that
        # carries each label, so no unused edge is built.
        self._label_edges: Dict[Constraint, ConstraintEdge] = {}
        self._negations: Dict[Constraint, Constraint] = {}
        self._return_edges: Dict[Tuple[Instruction, Instruction], ConstraintEdge] = {}
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

    def _return_edge(self, call: Instruction, exit_stmt: Instruction) -> ConstraintEdge:
        """The edge for ``call ∧ exit_stmt``, built once per pair: the flow
        happens only if the call occurs *and* the exit statement itself is
        enabled (a disabled annotated return falls through instead)."""
        key = (call, exit_stmt)
        edge = self._return_edges.get(key)
        if edge is None:
            edge = self._return_edges[key] = self._edge(
                self.constraint_of(call) & self.constraint_of(exit_stmt)
            )
        return edge

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
    # Flow functions: each exploded edge with its label (f_F ∨ f_¬F)
    # ------------------------------------------------------------------

    def normal_flow(self, stmt: Instruction, succ: Instruction) -> FlowFunction[D]:
        if stmt.annotation is None:
            if isinstance(stmt, Return):
                # Unannotated returns have no successors; nothing to do.
                return UniformEdges(Identity(), self._true_edge)
            return UniformEdges(self.inner.normal_flow(stmt, succ), self._true_edge)
        condition = self.constraint_of(stmt)
        if isinstance(stmt, Return) or (
            isinstance(stmt, Goto) and succ is not LiftedICFG.branch_target_of(stmt)
        ):
            # Disabled: a return or goto falls through (Fig. 4b).
            return _Labelled(
                Identity(), lambda: self._edge(self._negation(condition))
            )
        if isinstance(stmt, (Goto, If)) and succ is not LiftedICFG.fall_through_of(stmt):
            # Branch taken: only possible when enabled (Figs. 4b, 4c).
            return _Labelled(
                self.inner.normal_flow(stmt, succ), lambda: self._edge(condition)
            )
        # Enabled effect or disabled identity: a normal statement (Fig. 4a)
        # or a branch's fall-through (Fig. 4c).
        return _EnabledOrIdentity(self.inner.normal_flow(stmt, succ), self, condition)

    def call_flow(self, call: Instruction, callee: IRMethod) -> FlowFunction[D]:
        # Disabled case is kill-all (Fig. 4d), which adds no edges.
        flow = self.inner.call_flow(call, callee)
        if call.annotation is None:
            return UniformEdges(flow, self._true_edge)
        condition = self.constraint_of(call)
        return _Labelled(flow, lambda: self._edge(condition))

    def return_flow(
        self,
        call: Instruction,
        callee: IRMethod,
        exit_stmt: Instruction,
        return_site: Instruction,
    ) -> FlowFunction[D]:
        # Disabled case is kill-all (Fig. 4d).
        flow = self.inner.return_flow(call, callee, exit_stmt, return_site)
        if call.annotation is None and exit_stmt.annotation is None:
            return UniformEdges(flow, self._true_edge)
        return _Labelled(flow, lambda: self._return_edge(call, exit_stmt))

    def call_to_return_flow(
        self, call: Instruction, return_site: Instruction
    ) -> FlowFunction[D]:
        flow = self.inner.call_to_return_flow(call, return_site)
        if call.annotation is None:
            return UniformEdges(flow, self._true_edge)
        # Enabled: the analysis' call-to-return flow; disabled: identity
        # (the call does not happen, locals survive unchanged) — Fig. 4a.
        return _EnabledOrIdentity(flow, self, self.constraint_of(call))


class _Labelled(FlowFunction):
    """A lifted flow whose every edge carries one label: each target of
    ``flow`` maps to the edge ``label()`` returns.  ``label`` runs only
    when an edge exists, so a label that no edge carries is never built."""

    __slots__ = ("flow", "label")

    def __init__(self, flow: FlowFunction, label: Callable[[], ConstraintEdge]) -> None:
        self.flow = flow
        self.label = label

    def compute_targets(self, fact) -> Dict[object, ConstraintEdge]:
        targets = self.flow.compute_targets(fact)
        return dict.fromkeys(targets, self.label()) if targets else {}


class _EnabledOrIdentity(FlowFunction):
    """``f_F ∨ f_¬F`` where the disabled case is the identity (Fig. 4a):
    a target of the enabled flow alone is labelled ``F``, the fact alone
    ``¬F``, and a target of both ``true``.  The enabled flow is applied
    once per fact, and a label is asked for only when an edge carries it."""

    __slots__ = ("enabled", "problem", "condition")

    def __init__(
        self, enabled: FlowFunction, problem: LiftedProblem, condition: Constraint
    ) -> None:
        self.enabled = enabled
        self.problem = problem
        self.condition = condition

    def compute_targets(self, fact) -> Dict[object, ConstraintEdge]:
        enabled = self.enabled.compute_targets(fact)
        # Built as ``Union(enabled, Identity())`` builds it, so the targets
        # iterate in the same order.
        targets = frozenset() | enabled | {fact}
        problem = self.problem
        if fact in enabled:
            own = problem._true_edge
        else:
            own = problem._edge(problem._negation(self.condition))
        if len(targets) == 1:
            return dict.fromkeys(targets, own)
        edges = dict.fromkeys(targets, problem._edge(self.condition))
        edges[fact] = own
        return edges
