"""The inter-procedural control-flow graph (ICFG).

The interface mirrors what Heros expects from Soot: per-statement
successors, call/exit classification, callee and return-site lookup, and
start points per method.  IFDS/IDE solvers are written against this class
only — they never touch the AST or the frontend.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterator, List, Tuple

from repro.ir.callgraph import CallGraph, build_call_graph
from repro.ir.instructions import Goto, If, Instruction, Invoke, Return
from repro.ir.program import IRError, IRMethod, IRProgram

__all__ = ["ICFG", "NORMAL", "CALL", "EXIT", "EXIT_WITH_SUCCESSORS"]

#: Statement kinds, as :attr:`ICFG.kinds` classifies them.  An exit with
#: successors is a disabled annotated ``return`` of a lifted CFG, which
#: falls through: it is both an exit and a normal statement.
NORMAL, CALL, EXIT, EXIT_WITH_SUCCESSORS = 0, 1, 2, 3


class ICFG:
    """Inter-procedural CFG over the reachable part of an IR program."""

    def __init__(self, program: IRProgram, entry_points: Tuple[IRMethod, ...]) -> None:
        if not entry_points:
            raise IRError("at least one entry point is required")
        self.program = program
        self.entry_points = entry_points
        self.call_graph: CallGraph = build_call_graph(program, entry_points)
        self._successors: Dict[Instruction, Tuple[Instruction, ...]] = {}
        for method in self.call_graph.reachable_methods:
            self._compute_successors(method)

    @classmethod
    def for_entry(cls, program: IRProgram, qualified_name: str = "Main.main") -> "ICFG":
        """Convenience constructor from a ``Class.method`` entry name."""
        return cls(program, (program.method(qualified_name),))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def _compute_successors(self, method: IRMethod) -> None:
        instructions = method.instructions
        for instruction in instructions:
            if isinstance(instruction, Return):
                successors: Tuple[Instruction, ...] = ()
            elif isinstance(instruction, Goto):
                successors = (instructions[instruction.target],)
            elif isinstance(instruction, If):
                fall_through = instructions[instruction.index + 1]
                branch_target = instructions[instruction.target]
                successors = (fall_through, branch_target)
            else:
                successors = (instructions[instruction.index + 1],)
            self._successors[instruction] = successors

    # ------------------------------------------------------------------
    # Queries (the Heros-style interface)
    # ------------------------------------------------------------------

    def successors_of(self, instruction: Instruction) -> Tuple[Instruction, ...]:
        """Intra-procedural control-flow successors.

        For an :class:`If`, the *first* successor is the fall-through and
        the second is the branch target — the lifted flow functions for
        conditional branches depend on this distinction (Figure 4c).
        """
        return self._successors[instruction]

    def is_call(self, instruction: Instruction) -> bool:
        return isinstance(instruction, Invoke)

    def is_exit(self, instruction: Instruction) -> bool:
        return isinstance(instruction, Return)

    def is_branch(self, instruction: Instruction) -> bool:
        return isinstance(instruction, (If, Goto))

    @cached_property
    def kinds(self) -> Dict[Instruction, int]:
        """Each statement's kind (:data:`NORMAL`, :data:`CALL`,
        :data:`EXIT` or :data:`EXIT_WITH_SUCCESSORS`), decided once per
        graph from its own successor map; the solvers index it per visit."""
        kinds: Dict[Instruction, int] = {}
        for instruction, successors in self._successors.items():
            if self.is_call(instruction):
                kinds[instruction] = CALL
            elif self.is_exit(instruction):
                kinds[instruction] = EXIT_WITH_SUCCESSORS if successors else EXIT
            else:
                kinds[instruction] = NORMAL
        return kinds

    def callees_of(self, call: Instruction) -> Tuple[IRMethod, ...]:
        """Possible dispatch targets of a call site (CHA)."""
        return self.call_graph.callees(call)  # type: ignore[arg-type]

    def callers_of(self, method: IRMethod) -> Tuple[Instruction, ...]:
        return self.call_graph.callers(method)

    def return_sites_of(self, call: Instruction) -> Tuple[Instruction, ...]:
        """The statements control returns to after the call completes."""
        return self._successors[call]

    def method_of(self, instruction: Instruction) -> IRMethod:
        return instruction.method

    def start_point_of(self, method: IRMethod) -> Instruction:
        return method.start_point

    def exit_points_of(self, method: IRMethod) -> Tuple[Instruction, ...]:
        return method.exit_points

    def call_sites_in(self, method: IRMethod) -> Iterator[Instruction]:
        for instruction in method.instructions:
            if isinstance(instruction, Invoke):
                yield instruction

    @property
    def reachable_methods(self) -> Tuple[IRMethod, ...]:
        return self.call_graph.reachable_methods

    def reachable_instructions(self) -> Iterator[Instruction]:
        for method in self.reachable_methods:
            yield from method.instructions

    def instruction_count(self) -> int:
        return sum(len(m.instructions) for m in self.reachable_methods)

    def annotated_feature_names(self) -> "frozenset[str]":
        """Features mentioned on reachable instructions (Table 1's
        "reachable features")."""
        names: set = set()
        for instruction in self.reachable_instructions():
            if instruction.annotation is not None:
                names |= instruction.annotation.variables()
        return frozenset(names)
