"""Edge functions: the value-domain transformers of the IDE framework.

In IDE (Sagiv, Reps, Horwitz, TAPSOFT'96) every edge of the exploded super
graph carries a distributive function over a value lattice ``V``.  SPLLIFT
instantiates ``V`` with feature constraints and edge functions of the form
``λc. c ∧ A`` (see :mod:`repro.core.lifting`); the binary instantiation in
:mod:`repro.ide.binary` recovers plain IFDS.

Conventions:

- ``compose_with(second)`` returns "apply ``self``, then ``second``";
- ``join_with`` merges functions at control-flow merge points and must move
  values *down* the lattice (toward "more flows possible");
- ``TOP`` (via :class:`AllTop`) is the neutral element of the join: it maps
  everything to the lattice top ("this edge carries no flow").
"""

from __future__ import annotations

from typing import Generic, Hashable, Set, Tuple, TypeVar

__all__ = ["EdgeFunction", "IdentityEdge", "AllTop"]

V = TypeVar("V")

# In-flight delegations (op, id(self), id(other)).  ``IdentityEdge`` is
# domain-agnostic and must delegate join/equality to the other operand; a
# foreign EdgeFunction subclass that delegates back the same way would
# otherwise recurse forever.  The guard turns that mutual delegation into a
# terminating fallback (see ``IdentityEdge.join_with`` / ``equal_to``).
_ACTIVE_DELEGATIONS: Set[Tuple[str, int, int]] = set()


class EdgeFunction(Generic[V]):
    """A distributive function ``V -> V`` attached to an exploded-graph edge.

    Edge functions must be hashable: phase II of the IDE solver memoizes
    ``compute_target`` keyed by the function.  Every edge function here
    hashes by identity.
    """

    #: True iff this function maps *every* value to the lattice top, i.e. the
    #: edge carries no flow.  The solver reads this flag (one attribute load)
    #: on every propagation to drop dead paths — SPLLIFT's early termination —
    #: instead of a dynamic ``equal_to(all_top)`` comparison.  Subclasses
    #: whose instances can be all-top must set it accordingly (see
    #: ``ConstraintEdge``, whose flag is ``constraint.is_false``).
    is_top: bool = False

    def compute_target(self, source: V) -> V:
        raise NotImplementedError

    def compose_with(self, second: "EdgeFunction[V]") -> "EdgeFunction[V]":
        """``second ∘ self`` — apply ``self`` first, then ``second``."""
        raise NotImplementedError

    def join_with(self, other: "EdgeFunction[V]") -> "EdgeFunction[V]":
        """The join of two edge functions at a merge point."""
        raise NotImplementedError

    def equal_to(self, other: "EdgeFunction[V]") -> bool:
        """Semantic equality (drives the solver's fixed-point detection)."""
        raise NotImplementedError


class IdentityEdge(EdgeFunction[V]):
    """The identity edge function (seeds and plain IFDS edges)."""

    def compute_target(self, source: V) -> V:
        return source

    def compose_with(self, second: EdgeFunction[V]) -> EdgeFunction[V]:
        return second

    def join_with(self, other: EdgeFunction[V]) -> EdgeFunction[V]:
        if isinstance(other, (AllTop, IdentityEdge)):
            return self
        if other.equal_to(self):
            return self
        # Delegate: the other function knows its own domain.  Guard against
        # mutual delegation (a foreign subclass bouncing the join straight
        # back) — without the guard that is infinite recursion.
        key = ("join", id(self), id(other))
        if key in _ACTIVE_DELEGATIONS:
            raise TypeError(
                f"cannot join {self!r} with {other!r}: both functions "
                f"delegate the join to the other operand"
            )
        _ACTIVE_DELEGATIONS.add(key)
        try:
            return other.join_with(self)
        finally:
            _ACTIVE_DELEGATIONS.discard(key)

    def equal_to(self, other: EdgeFunction[V]) -> bool:
        if other is self or isinstance(other, IdentityEdge):
            return True
        if isinstance(other, AllTop):
            return False
        # Delegate with the same mutual-delegation guard as ``join_with``;
        # if the other operand delegates back, conservatively report "not
        # equal" instead of recursing forever.
        key = ("equal", id(self), id(other))
        if key in _ACTIVE_DELEGATIONS:
            return False
        _ACTIVE_DELEGATIONS.add(key)
        try:
            return other.equal_to(self)
        finally:
            _ACTIVE_DELEGATIONS.discard(key)

    def __repr__(self) -> str:
        return "id"


class AllTop(EdgeFunction[V]):
    """Maps every value to top: the edge carries no flow.

    This is the default jump function; a composed function that collapses
    to all-top is dropped by the solver, which is exactly SPLLIFT's early
    termination when a constraint contradicts the feature model.
    """

    is_top = True

    def __init__(self, top: V) -> None:
        self.top = top

    def compute_target(self, source: V) -> V:
        return self.top

    def compose_with(self, second: EdgeFunction[V]) -> EdgeFunction[V]:
        # Edge functions are strict (they map top to top), so composing
        # anything after all-top stays all-top.
        return self

    def join_with(self, other: EdgeFunction[V]) -> EdgeFunction[V]:
        return other

    def equal_to(self, other: EdgeFunction[V]) -> bool:
        if other is self:
            return True
        return isinstance(other, AllTop) and other.top == self.top

    def __repr__(self) -> str:
        return "all-top"
