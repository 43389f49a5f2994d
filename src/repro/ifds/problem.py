"""The IFDS problem interface (Reps, Horwitz, Sagiv, POPL'95).

Analyses implement the four flow-function classes of Section 2.2 of the
paper — normal, call, return, and call-to-return — against the ICFG, plus
initial seeds.  Facts can be anything hashable; the framework is oblivious
to the abstraction (Section 2.1).  A fact's hash must not depend on object
addresses: sets of facts iterate in hash order and the solvers' work
follows that order, so an address in the hash makes the work differ from
one process to the next.

The same interface is consumed by three solvers:

- :class:`repro.ifds.solver.IFDSSolver` — direct tabulation,
- :class:`repro.ide.solver.IDESolver` via the binary-domain encoding
  (:func:`repro.ide.binary.ifds_as_ide`), and
- :class:`repro.core.solver.SPLLift` — the lifted, feature-sensitive
  version (the point of the paper: not a single line of the analysis
  changes).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Generic, Hashable, Set, TypeVar

from repro.ifds.flowfunctions import FlowFunction, Identity
from repro.ir.icfg import ICFG
from repro.ir.instructions import Instruction
from repro.ir.program import IRMethod

__all__ = ["ZERO", "ZeroFact", "IFDSProblem"]

D = TypeVar("D", bound=Hashable)


class ZeroFact(tuple):
    """The special ``0`` fact: the tautology that unconditionally holds.

    Two nodes representing 0 at different statements are always connected
    (Section 2.1) — except in SPLLIFT, which conditionalizes 0-edges to
    compute reachability as a side effect (Section 3.3).

    A singleton, and like the client facts a tagged tuple, ``("zero",)``,
    so its hash is the same in every process.
    """

    __slots__ = ()
    _instance: "ZeroFact" = None

    def __new__(cls) -> "ZeroFact":
        if cls._instance is None:
            cls._instance = tuple.__new__(cls, ("zero",))
        return cls._instance

    def __getnewargs__(self) -> tuple:
        return ()

    def __repr__(self) -> str:
        return "0"


ZERO = ZeroFact()


class IFDSProblem(Generic[D]):
    """Base class for IFDS analyses over an :class:`~repro.ir.icfg.ICFG`."""

    def __init__(self, icfg: ICFG) -> None:
        self.icfg = icfg

    # ------------------------------------------------------------------
    # Facts and seeds
    # ------------------------------------------------------------------

    @property
    def zero(self) -> ZeroFact:
        return ZERO

    def initial_seeds(self) -> Dict[Instruction, Set[D]]:
        """Facts seeded at statements; defaults to zero at every entry."""
        return {
            entry.start_point: {self.zero}
            for entry in self.icfg.entry_points
        }

    # ------------------------------------------------------------------
    # The four flow-function classes (Section 2.2)
    # ------------------------------------------------------------------

    def normal_flow(
        self, stmt: Instruction, succ: Instruction
    ) -> FlowFunction[D]:
        """Flow through a non-call statement to a given successor."""
        return Identity()

    def call_flow(self, call: Instruction, callee: IRMethod) -> FlowFunction[D]:
        """Flow from a call site into a possible callee (actual→formal)."""
        return Identity()

    def return_flow(
        self,
        call: Instruction,
        callee: IRMethod,
        exit_stmt: Instruction,
        return_site: Instruction,
    ) -> FlowFunction[D]:
        """Flow from a callee exit back to a return site of the call."""
        return Identity()

    def call_to_return_flow(
        self, call: Instruction, return_site: Instruction
    ) -> FlowFunction[D]:
        """Intra-procedural flow across a call site (locals not passed)."""
        return Identity()
