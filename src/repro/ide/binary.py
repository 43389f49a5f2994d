"""The binary-domain embedding of IFDS into IDE.

"Every IFDS problem can be encoded as a special instance of the IDE
framework using a binary domain {⊤, ⊥} where d ↦ ⊥ states that data-flow
fact d holds at the current statement" (Section 2.4 of the paper).  Here
``⊥`` is ``True`` ("holds") and ``⊤`` is ``False``.

Every edge computes the identity, so each flow maps the IFDS flow's
targets to the identity edge (:class:`~repro.ide.problem.UniformEdges`).
Used by the test suite to validate the IDE solver against the direct IFDS
tabulation solver: both must compute identical fact sets.
"""

from __future__ import annotations

from typing import Dict, Hashable, TypeVar

from repro.ide.edgefunctions import AllTop, EdgeFunction, IdentityEdge
from repro.ide.problem import IDEProblem, UniformEdges
from repro.ide.solver import IDEResults, IDESolver
from repro.ifds.problem import IFDSProblem
from repro.ir.instructions import Instruction
from repro.ir.program import IRMethod

__all__ = ["BinaryIDEProblem", "ifds_as_ide", "solve_ifds_via_ide"]

D = TypeVar("D", bound=Hashable)

_IDENTITY: IdentityEdge = IdentityEdge()


class BinaryIDEProblem(IDEProblem[D, bool]):
    """Wrap an IFDS problem as an IDE problem over the binary lattice."""

    def __init__(self, ifds_problem: IFDSProblem[D]) -> None:
        super().__init__(ifds_problem.icfg)
        self.ifds_problem = ifds_problem
        # One all-top per problem: with a single flyweight instance the
        # solver's drop/fixed-point checks reduce to pointer comparisons.
        self._all_top: AllTop = AllTop(False)

    def all_top(self) -> EdgeFunction[bool]:
        return self._all_top

    def seed_edge_function(self) -> EdgeFunction[bool]:
        # The shared identity singleton; every edge below carries it too,
        # so compositions never allocate in the binary embedding.
        return _IDENTITY

    # Facts delegate unchanged; every existing edge computes the identity.
    def initial_seeds(self):
        return self.ifds_problem.initial_seeds()

    def normal_flow(self, stmt: Instruction, succ: Instruction) -> UniformEdges[D]:
        return UniformEdges(self.ifds_problem.normal_flow(stmt, succ), _IDENTITY)

    def call_flow(self, call: Instruction, callee: IRMethod) -> UniformEdges[D]:
        return UniformEdges(self.ifds_problem.call_flow(call, callee), _IDENTITY)

    def return_flow(self, call, callee, exit_stmt, return_site) -> UniformEdges[D]:
        return UniformEdges(
            self.ifds_problem.return_flow(call, callee, exit_stmt, return_site),
            _IDENTITY,
        )

    def call_to_return_flow(self, call, return_site) -> UniformEdges[D]:
        return UniformEdges(
            self.ifds_problem.call_to_return_flow(call, return_site), _IDENTITY
        )

    # The binary lattice.
    def top_value(self) -> bool:
        return False

    def bottom_value(self) -> bool:
        return True

    def join_values(self, left: bool, right: bool) -> bool:
        return left or right


def ifds_as_ide(problem: IFDSProblem[D]) -> BinaryIDEProblem[D]:
    """Embed an IFDS problem into IDE over the binary domain."""
    return BinaryIDEProblem(problem)


def solve_ifds_via_ide(problem: IFDSProblem[D]) -> IDEResults[D, bool]:
    """Solve an IFDS problem with the IDE solver (binary domain)."""
    return IDESolver(ifds_as_ide(problem)).solve()
