"""Linear constant propagation — a *native* IDE analysis.

The IDE framework's flagship application (Sagiv, Reps, Horwitz,
TAPSOFT'96: "Precise interprocedural dataflow analysis with applications
to constant propagation").  Unlike the IFDS clients, this analysis uses a
non-trivial value domain directly: the environment maps each local to

    ⊤ (unreached)  ⊐  constants c ∈ Z  ⊐  ⊥ (non-constant),

and edge functions are *affine* transformers ``λv. a·v + b`` (plus the
absorbing all-⊥), which are closed under composition and — conservatively
— under join (unequal transformers join to all-⊥; the textbook refinement
with pointwise meets is not needed for the reproduction's purposes).
Each flow function maps every target fact to its edge's transformer (the
contract of :mod:`repro.ide.problem`), so the case that makes a fact flow
also says what its value becomes.

Included for two reasons: it exercises the IDE solver with a genuinely
different edge-function algebra than SPLLIFT's constraints, and it shows
where SPLLIFT's transparent lifting stops — an analysis that already
*uses* the IDE value domain cannot also carry feature constraints there
(the paper lifts IFDS, not IDE, problems).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

from repro.analyses.facts import LocalFact
from repro.ide.edgefunctions import AllTop, EdgeFunction
from repro.ide.problem import IDEProblem, UniformEdges
from repro.ifds.flowfunctions import FlowFunction, Identity
from repro.ifds.problem import ZERO
from repro.ir.instructions import (
    Assign,
    BinOp,
    Const,
    Instruction,
    Invoke,
    LocalRef,
    Return,
    RValue,
    UnOp,
)
from repro.ir.program import IRMethod

__all__ = ["ConstantPropagation", "TOP", "BOTTOM", "CPValue", "AffineEdge", "AllBottomEdge"]


class _Sentinel:
    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: Unreached / no information.
TOP = _Sentinel("⊤")
#: Reached with more than one possible value (non-constant).
BOTTOM = _Sentinel("⊥")

CPValue = Union[_Sentinel, int]


class AffineEdge(EdgeFunction[CPValue]):
    """``λv. a·v + b`` with ⊥ absorbing unless the function is constant."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    @property
    def is_constant(self) -> bool:
        return self.a == 0

    def compute_target(self, source: CPValue) -> CPValue:
        if self.is_constant:
            return self.b
        if source is BOTTOM or source is TOP:
            return source
        return self.a * source + self.b

    def compose_with(self, second: EdgeFunction[CPValue]) -> EdgeFunction[CPValue]:
        if isinstance(second, AffineEdge):
            # second(self(v)) = a2(a1 v + b1) + b2
            return AffineEdge(second.a * self.a, second.a * self.b + second.b)
        if isinstance(second, AllBottomEdge):
            return second
        if isinstance(second, AllTop):
            return second
        raise TypeError(f"cannot compose AffineEdge with {second!r}")

    def join_with(self, other: EdgeFunction[CPValue]) -> EdgeFunction[CPValue]:
        if isinstance(other, AllTop):
            return self
        if self.equal_to(other):
            return self
        # Two different transformers along merged paths: non-constant.
        return AllBottomEdge()

    def equal_to(self, other: EdgeFunction[CPValue]) -> bool:
        return (
            isinstance(other, AffineEdge)
            and other.a == self.a
            and other.b == self.b
        )

    def __repr__(self) -> str:
        if self.is_constant:
            return f"λv.{self.b}"
        if self.a == 1 and self.b == 0:
            return "λv.v"
        return f"λv.{self.a}v+{self.b}"


class AllBottomEdge(EdgeFunction[CPValue]):
    """Maps everything (reached) to ⊥ — value present but unknown."""

    def compute_target(self, source: CPValue) -> CPValue:
        return BOTTOM

    def compose_with(self, second: EdgeFunction[CPValue]) -> EdgeFunction[CPValue]:
        if isinstance(second, AffineEdge) and second.is_constant:
            return second  # a constant function forgets its input
        if isinstance(second, AllTop):
            return second
        return self

    def join_with(self, other: EdgeFunction[CPValue]) -> EdgeFunction[CPValue]:
        if isinstance(other, AllTop):
            return self
        return self  # ⊥ absorbs every join

    def equal_to(self, other: EdgeFunction[CPValue]) -> bool:
        return isinstance(other, AllBottomEdge)

    def __repr__(self) -> str:
        return "λv.⊥"


_IDENTITY_EDGE = AffineEdge(1, 0)


def _constant_edge(value: object) -> EdgeFunction[CPValue]:
    """The edge that generates a constant: ``λv. value`` for an integer,
    ⊥ for anything else (booleans, null, a non-constant expression)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return AffineEdge(0, value)
    return AllBottomEdge()


class _Edges(FlowFunction):
    """A flow given by a callable ``fact -> {target: edge function}``."""

    def __init__(self, function: Callable[[object], Dict]) -> None:
        self.function = function

    def compute_targets(self, fact) -> Dict:
        return self.function(fact)


def _join_values(left: CPValue, right: CPValue) -> CPValue:
    if left is TOP:
        return right
    if right is TOP:
        return left
    if left is BOTTOM or right is BOTTOM:
        return BOTTOM
    return left if left == right else BOTTOM


def _linear_of(rvalue: RValue) -> Optional[Tuple[Optional[str], int, int]]:
    """Decompose a flat right-hand side as ``a·source + b``.

    Returns ``(source_local_or_None, a, b)``; source ``None`` means the
    value is the constant ``b``.  ``None`` (no tuple) means not linear —
    the target becomes ⊥.
    """
    if isinstance(rvalue, Const):
        if isinstance(rvalue.value, bool) or rvalue.value is None:
            return None
        return (None, 0, rvalue.value)
    if isinstance(rvalue, LocalRef):
        return (rvalue.name, 1, 0)
    if isinstance(rvalue, UnOp) and rvalue.op == "-":
        inner = _linear_of(rvalue.operand)
        if inner is None:
            return None
        source, a, b = inner
        return (source, -a, -b)
    if isinstance(rvalue, BinOp):
        left, right = rvalue.left, rvalue.right
        if rvalue.op in ("+", "-"):
            sign = 1 if rvalue.op == "+" else -1
            if isinstance(left, LocalRef) and isinstance(right, Const):
                if isinstance(right.value, int) and not isinstance(right.value, bool):
                    return (left.name, 1, sign * right.value)
            if (
                rvalue.op == "+"
                and isinstance(left, Const)
                and isinstance(right, LocalRef)
            ):
                if isinstance(left.value, int) and not isinstance(left.value, bool):
                    return (right.name, 1, left.value)
            if isinstance(left, Const) and isinstance(right, Const):
                if all(
                    isinstance(c.value, int) and not isinstance(c.value, bool)
                    for c in (left, right)
                ):
                    return (None, 0, left.value + sign * right.value)
        if rvalue.op == "*":
            if isinstance(left, LocalRef) and isinstance(right, Const):
                if isinstance(right.value, int) and not isinstance(right.value, bool):
                    return (left.name, right.value, 0)
            if isinstance(left, Const) and isinstance(right, LocalRef):
                if isinstance(left.value, int) and not isinstance(left.value, bool):
                    return (right.name, left.value, 0)
            if isinstance(left, Const) and isinstance(right, Const):
                if all(
                    isinstance(c.value, int) and not isinstance(c.value, bool)
                    for c in (left, right)
                ):
                    return (None, 0, left.value * right.value)
    return None


class ConstantPropagation(IDEProblem):
    """Inter-procedural linear constant propagation over locals."""

    # ------------------------------------------------------------------
    # Value lattice
    # ------------------------------------------------------------------

    def top_value(self) -> CPValue:
        return TOP

    def bottom_value(self) -> CPValue:
        return BOTTOM

    def join_values(self, left: CPValue, right: CPValue) -> CPValue:
        return _join_values(left, right)

    def seed_edge_function(self) -> EdgeFunction[CPValue]:
        return _IDENTITY_EDGE

    def initial_seed_values(self):
        # The zero fact carries ⊥ ("reached"); constants are generated
        # from it by constant edge functions.
        return {
            stmt: {fact: BOTTOM for fact in facts}
            for stmt, facts in self.initial_seeds().items()
        }

    # ------------------------------------------------------------------
    # Flow functions: each target fact with its edge function
    # ------------------------------------------------------------------

    def normal_flow(self, stmt: Instruction, succ: Instruction) -> FlowFunction:
        if not isinstance(stmt, Assign):
            return UniformEdges(Identity(), _IDENTITY_EDGE)
        target = LocalFact(stmt.target)
        linear = _linear_of(stmt.rvalue)
        if linear is None:
            source, assigned = None, AllBottomEdge()
        else:
            source, assigned = linear[0], AffineEdge(linear[1], linear[2])

        def flow(fact) -> Dict:
            if fact is ZERO:
                # The target is tracked from the zero fact whenever its
                # new value does not come from another tracked local.
                if source is None:
                    return {ZERO: _IDENTITY_EDGE, target: assigned}
                return {ZERO: _IDENTITY_EDGE}
            if fact == target:
                if source == stmt.target:
                    return {fact: assigned}  # x = a·x + b keeps tracking x
                return {}
            if source == fact.name:
                return {fact: _IDENTITY_EDGE, target: assigned}
            return {fact: _IDENTITY_EDGE}

        return _Edges(flow)

    def call_flow(self, call: Invoke, callee: IRMethod) -> FlowFunction:
        pairs = tuple(zip(call.args, callee.params))

        def flow(fact) -> Dict:
            if fact is ZERO:
                # A constant actual generates its formal's fact, with
                # the constant's value (⊥ for a non-integer constant).
                targets = {ZERO: _IDENTITY_EDGE}
                for arg, param in pairs:
                    if isinstance(arg, Const):
                        targets[LocalFact(param)] = _constant_edge(arg.value)
                return targets
            return {
                LocalFact(param): _IDENTITY_EDGE
                for arg, param in pairs
                if isinstance(arg, LocalRef) and fact == LocalFact(arg.name)
            }

        return _Edges(flow)

    def return_flow(
        self,
        call: Invoke,
        callee: IRMethod,
        exit_stmt: Instruction,
        return_site: Instruction,
    ) -> FlowFunction:
        result = call.result
        returned = exit_stmt.value if isinstance(exit_stmt, Return) else None

        def flow(fact) -> Dict:
            if fact is ZERO:
                if result is not None and not isinstance(returned, LocalRef):
                    returned_value = (
                        returned.value if isinstance(returned, Const) else None
                    )
                    return {
                        ZERO: _IDENTITY_EDGE,
                        LocalFact(result): _constant_edge(returned_value),
                    }
                return {ZERO: _IDENTITY_EDGE}
            if (
                result is not None
                and isinstance(returned, LocalRef)
                and fact == LocalFact(returned.name)
            ):
                return {LocalFact(result): _IDENTITY_EDGE}
            return {}

        return _Edges(flow)

    def call_to_return_flow(self, call: Invoke, return_site: Instruction) -> FlowFunction:
        result = call.result

        def flow(fact) -> Dict:
            if fact is ZERO:
                return {ZERO: _IDENTITY_EDGE}
            if result is not None and fact == LocalFact(result):
                return {}
            return {fact: _IDENTITY_EDGE}

        return _Edges(flow)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @staticmethod
    def constant_at(results, stmt: Instruction, local: str) -> CPValue:
        """The solved lattice value of ``local`` just before ``stmt``."""
        return results.value_at(stmt, LocalFact(local))
