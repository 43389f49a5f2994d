"""The IDE problem interface (Sagiv, Reps, Horwitz, TAPSOFT'96).

An IDE problem is an IFDS problem whose exploded-graph edges each carry
an :class:`~repro.ide.edgefunctions.EdgeFunction` over a value lattice
``V``.  One case analysis decides both which edges exist and what they
compute: each of the four flow functions' ``compute_targets(d)`` returns
a mapping from every target fact ``d'`` to the function of the edge
``d -> d'``.  A mapping iterates its keys, so an IDE problem still
reads as an IFDS problem: a reader that wants only the target facts (the
IFDS solver, the exploded-graph builder) iterates the same flows.
Environments ``{fact -> V}`` are transformed along the graph; the solved
value at ``(s, d)`` is the join over all valid paths.

Every IFDS problem embeds into IDE via the binary lattice
(:mod:`repro.ide.binary`, each target mapped to the identity with
:class:`UniformEdges`); SPLLIFT instead uses feature constraints
(:mod:`repro.core`), exploiting exactly this expressiveness gap
(Section 3 of the paper).
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, Iterable, TypeVar

from repro.ide.edgefunctions import AllTop, EdgeFunction, IdentityEdge
from repro.ifds.flowfunctions import FlowFunction
from repro.ifds.problem import IFDSProblem
from repro.ir.instructions import Instruction

__all__ = ["IDEProblem", "UniformEdges"]

D = TypeVar("D", bound=Hashable)
V = TypeVar("V")


class UniformEdges(FlowFunction[D]):
    """An IFDS flow function whose every edge computes ``edge``: each
    target of ``flow`` maps to ``edge``."""

    __slots__ = ("flow", "edge")

    def __init__(self, flow: FlowFunction[D], edge: EdgeFunction) -> None:
        self.flow = flow
        self.edge = edge

    def compute_targets(self, fact: D) -> Dict[D, EdgeFunction]:
        return dict.fromkeys(self.flow.compute_targets(fact), self.edge)


class IDEProblem(IFDSProblem[D], Generic[D, V]):
    """Base class for IDE analyses.

    Subclasses provide the value lattice (:meth:`top_value`,
    :meth:`join_values`), seed values, and the four flow functions, whose
    targets map to their edge functions (see the module docstring).
    """

    # ------------------------------------------------------------------
    # The value lattice
    # ------------------------------------------------------------------

    def top_value(self) -> V:
        """The neutral element of the join ("no flow reaches this node")."""
        raise NotImplementedError

    def bottom_value(self) -> V:
        """The most permissive value (seeds default to this)."""
        raise NotImplementedError

    def join_values(self, left: V, right: V) -> V:
        """Join two values at a merge point (moves down, toward bottom)."""
        raise NotImplementedError

    def join_all_values(self, values: Iterable[V]) -> V:
        """n-ary join at a merge point with many incoming values.

        The default folds pairwise via :meth:`join_values`; lattices with
        a cheaper batch operation (e.g. the constraint systems' n-ary
        ``or_all``) override this — the join is associative and
        commutative, so any reduction order yields the same value.
        """
        result = self.top_value()
        for value in values:
            result = self.join_values(result, value)
        return result

    def all_top(self) -> EdgeFunction[V]:
        """The all-top edge function (default jump function)."""
        return AllTop(self.top_value())

    def seed_edge_function(self) -> EdgeFunction[V]:
        """Jump function seeded at entry points (default: identity)."""
        return IdentityEdge()

    def initial_seed_values(self) -> Dict[Instruction, Dict[D, V]]:
        """Seed values for phase II; defaults to bottom at every seed."""
        return {
            stmt: {fact: self.bottom_value() for fact in facts}
            for stmt, facts in self.initial_seeds().items()
        }

    def edge_cache_stats(self) -> Dict[str, int]:
        """Edge-algebra cache counters, merged into ``IDESolver.stats``
        after the solve.  Problems without a memoized edge algebra (e.g.
        the binary embedding) report nothing; the lifted problem reports
        its intern-table counters (see ``repro.core.lifting``)."""
        return {}
