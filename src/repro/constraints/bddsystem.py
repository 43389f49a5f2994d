"""BDD-backed feature constraints (the representation the paper ships).

Constraints are thin wrappers around node ids of a shared
:class:`~repro.bdd.BDDManager`.  Because ROBDDs are canonical, equality,
``is_false`` and ``is_true`` are constant-time — exactly the properties
Section 5 of the paper identifies as crucial for SPLLIFT's performance.
The variable order is the manager's static one (Section 5 leaves
ordering as future work).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Sequence

from repro.bdd import BDDManager
from repro.bdd.manager import FALSE as _FALSE, TRUE as _TRUE
from repro.constraints.base import (
    ConfigurationLike,
    Constraint,
    ConstraintSystem,
    as_assignment,
)
from repro.constraints.formula import Formula, parse_formula

__all__ = ["BddConstraint", "BddConstraintSystem"]


class BddConstraint(Constraint):
    """A feature constraint represented as a node in a shared BDD.

    Handles are interned per system (:meth:`BddConstraintSystem._wrap`),
    so equal constraints are the same object and equality and hashing
    are the default identity ones, in C.  Make handles only through the
    system, never by calling this class.
    """

    __slots__ = ("_system", "_node")

    def __init__(self, system: "BddConstraintSystem", node: int) -> None:
        self._system = system
        self._node = node

    @property
    def system(self) -> "BddConstraintSystem":
        return self._system

    @property
    def node(self) -> int:
        """The underlying BDD node id (exposed for diagnostics)."""
        return self._node

    @property
    def is_false(self) -> bool:
        # Canonical representation: constant-time, no manager round-trip.
        return self._node == _FALSE

    @property
    def is_true(self) -> bool:
        return self._node == _TRUE

    def entails(self, other: Constraint) -> bool:
        other_node = self._system.coerce(other)._node
        return self._system.manager.entails(self._node, other_node)

    def satisfied_by(self, configuration: ConfigurationLike) -> bool:
        manager = self._system.manager
        assignment = as_assignment(configuration, manager.support(self._node))
        return manager.evaluate(self._node, assignment)

    def models(
        self, over: Optional[Sequence[str]] = None
    ) -> Iterator[Dict[str, bool]]:
        """All satisfying assignments over ``over`` (default: all features)."""
        return self._system.manager.iter_models(self._node, over)

    def model_count(self, over: Optional[Iterable[str]] = None) -> int:
        """Number of satisfying assignments over ``over``."""
        return self._system.manager.satcount(self._node, over)

    def __repr__(self) -> str:
        return f"BddConstraint({self._system.manager.to_expr_string(self._node)})"

    def __str__(self) -> str:
        return self._system.manager.to_expr_string(self._node)


class BddConstraintSystem(ConstraintSystem):
    """Constraint system backed by a single shared :class:`BDDManager`."""

    name = "bdd"

    def __init__(self, manager: Optional[BDDManager] = None) -> None:
        self.manager = manager if manager is not None else BDDManager()
        self._true = BddConstraint(self, self.manager.true)
        self._false = BddConstraint(self, self.manager.false)
        # Intern constraints by node so equal functions share a handle.
        self._interned: Dict[int, BddConstraint] = {
            self.manager.true: self._true,
            self.manager.false: self._false,
        }

    def _wrap(self, node: int) -> BddConstraint:
        constraint = self._interned.get(node)
        if constraint is None:
            constraint = BddConstraint(self, node)
            self._interned[node] = constraint
        return constraint

    def solver_stats(self) -> Dict[str, object]:
        """BDD substrate counters for :attr:`IDESolver.stats` and benches.

        The two ``*_load_factor``/``*_occupancy`` entries are floats in
        ``[0, 1]`` (table-health gauges); the rest are plain counters.
        """
        stats = self.manager.cache_stats()
        return {
            "bdd_nodes": stats["unique_entries"],
            "bdd_apply_calls": stats["apply_calls"],
            "bdd_apply_cache_hits": stats["apply_cache_hits"],
            "bdd_apply_cache_misses": stats["apply_cache_misses"],
            "unique_load_factor": stats["unique_load_factor"],
            "apply_cache_occupancy": stats["apply_cache_occupancy"],
        }

    def wrap_node(self, node: int) -> BddConstraint:
        """Wrap a raw node of this system's manager into a constraint."""
        return self._wrap(node)

    def coerce(self, constraint: Constraint) -> BddConstraint:
        """Type-check a foreign handle into this system."""
        if not isinstance(constraint, BddConstraint) or constraint.system is not self:
            raise TypeError(
                f"constraint {constraint!r} does not belong to this system"
            )
        return constraint

    @property
    def true(self) -> BddConstraint:
        return self._true

    @property
    def false(self) -> BddConstraint:
        return self._false

    def var(self, feature: str) -> BddConstraint:
        return self._wrap(self.manager.var(feature))

    def from_formula(self, formula: Formula) -> BddConstraint:
        return self._wrap(formula.to_bdd(self.manager))

    def parse(self, text: str) -> BddConstraint:
        """Parse a textual formula directly into a constraint."""
        return self.from_formula(parse_formula(text))

    def and_(self, left: Constraint, right: Constraint) -> BddConstraint:
        # Trivial cases short-circuit before touching the BDD engine: the
        # lifted hot path conjoins with `true` (unannotated statements) and
        # with itself (re-walked paths) constantly.  ``coerce`` is inlined
        # as a same-system check — two calls per conjunction add up over
        # tens of thousands of edge compositions.
        a = left if type(left) is BddConstraint and left._system is self else self.coerce(left)
        b = right if type(right) is BddConstraint and right._system is self else self.coerce(right)
        node_a, node_b = a._node, b._node
        if node_a == node_b or node_b == _TRUE:
            return a
        if node_a == _TRUE:
            return b
        if node_a == _FALSE or node_b == _FALSE:
            return self._false
        return self._wrap(self.manager.and_(node_a, node_b))

    def or_(self, left: Constraint, right: Constraint) -> BddConstraint:
        a = left if type(left) is BddConstraint and left._system is self else self.coerce(left)
        b = right if type(right) is BddConstraint and right._system is self else self.coerce(right)
        node_a, node_b = a._node, b._node
        if node_a == node_b or node_b == _FALSE:
            return a
        if node_a == _FALSE:
            return b
        if node_a == _TRUE or node_b == _TRUE:
            return self._true
        return self._wrap(self.manager.or_(node_a, node_b))

    def not_(self, operand: Constraint) -> BddConstraint:
        return self._wrap(self.manager.not_(self.coerce(operand).node))

    def or_all(self, constraints: Iterable[Constraint]) -> BddConstraint:
        # n-ary disjunction for merge points with high in-degree: operands
        # are deduplicated by node id and reduced as a balanced tree, so a
        # k-way join costs at most k-1 manager applies on *distinct*
        # operands (often far fewer) and wraps a single handle — instead
        # of k pairwise `or_` round-trips through coerce/wrap.
        nodes = []
        seen = set()
        for constraint in constraints:
            node = self.coerce(constraint)._node
            if node == _TRUE:
                return self._true
            if node == _FALSE or node in seen:
                continue
            seen.add(node)
            nodes.append(node)
        if not nodes:
            return self._false
        manager_or = self.manager.or_
        while len(nodes) > 1:
            reduced = []
            for i in range(0, len(nodes) - 1, 2):
                node = manager_or(nodes[i], nodes[i + 1])
                if node == _TRUE:
                    return self._true
                reduced.append(node)
            if len(nodes) % 2:
                reduced.append(nodes[-1])
            nodes = reduced
        return self._wrap(nodes[0])
