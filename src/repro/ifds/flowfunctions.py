"""Flow functions: distributive functions over sets of data-flow facts.

IFDS flow functions are represented by their action on a *single* fact
(including the special zero fact): ``compute_targets(fact)`` returns the
facts that ``fact`` flows to across a statement.  This is the standard
pointwise representation (Figure 2 of the paper): a gen function maps the
zero fact to the generated facts, a kill function maps the killed fact to
the empty set, and identity maps each fact to itself.

The combinators here cover the common shapes; analyses can also implement
:class:`FlowFunction` directly.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Generic, Hashable, Iterable, TypeVar

__all__ = [
    "FlowFunction",
    "Identity",
    "KillAll",
    "Gen",
    "Kill",
    "Transfer",
    "Lambda",
    "Compose",
    "Union",
]

D = TypeVar("D", bound=Hashable)


class FlowFunction(Generic[D]):
    """A distributive flow function, given pointwise."""

    # Empty, so that a subclass declaring its own slots holds no instance
    # dict (solvers keep one flow per ICFG edge); others still get one.
    __slots__ = ()

    def compute_targets(self, fact: D) -> FrozenSet[D]:
        """The facts that ``fact`` flows to across this statement."""
        raise NotImplementedError


class Identity(FlowFunction[D]):
    """Maps every fact to itself (Figure 2's ``id``)."""

    _instance: "Identity" = None

    def __new__(cls) -> "Identity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def compute_targets(self, fact: D) -> FrozenSet[D]:
        return frozenset((fact,))

    def __repr__(self) -> str:
        return "Identity"


class KillAll(FlowFunction[D]):
    """Maps every fact to the empty set.

    This is the disabled-case flow function for call and return edges in
    SPLLIFT (Figure 4d): if the invoke statement is disabled, no flow
    between caller and callee occurs.
    """

    _instance: "KillAll" = None

    def __new__(cls) -> "KillAll":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def compute_targets(self, fact: D) -> FrozenSet[D]:
        return frozenset()

    def __repr__(self) -> str:
        return "KillAll"


class Gen(FlowFunction[D]):
    """Generates facts from the zero fact; everything else flows through.

    ``Gen({a}, zero)`` is Figure 2's function ``α`` restricted to its gen
    half; combine with :class:`Kill` via :class:`Compose` for kill-and-gen.
    """

    def __init__(self, gen_facts: Iterable[D], zero: D) -> None:
        self.gen_facts = frozenset(gen_facts)
        self.zero = zero

    def compute_targets(self, fact: D) -> FrozenSet[D]:
        if fact == self.zero:
            return self.gen_facts | {self.zero}
        return frozenset((fact,))

    def __repr__(self) -> str:
        return f"Gen({set(self.gen_facts)!r})"


class Kill(FlowFunction[D]):
    """Kills the given facts; everything else flows through."""

    def __init__(self, kill_facts: Iterable[D]) -> None:
        self.kill_facts = frozenset(kill_facts)

    def compute_targets(self, fact: D) -> FrozenSet[D]:
        if fact in self.kill_facts:
            return frozenset()
        return frozenset((fact,))

    def __repr__(self) -> str:
        return f"Kill({set(self.kill_facts)!r})"


class Transfer(FlowFunction[D]):
    """``target = source``-style transfer: ``source`` additionally flows to
    ``target``; ``target``'s previous value is killed (the non-locally-
    separable function of Section 2.1)."""

    def __init__(self, target: D, source: D) -> None:
        self.target = target
        self.source = source

    def compute_targets(self, fact: D) -> FrozenSet[D]:
        if fact == self.target:
            return frozenset()
        if fact == self.source:
            return frozenset((self.source, self.target))
        return frozenset((fact,))

    def __repr__(self) -> str:
        return f"Transfer({self.target!r} <- {self.source!r})"


class Lambda(FlowFunction[D]):
    """Wraps a plain callable ``fact -> iterable of facts``."""

    def __init__(self, function: Callable[[D], Iterable[D]]) -> None:
        self.function = function

    def compute_targets(self, fact: D) -> FrozenSet[D]:
        return frozenset(self.function(fact))

    def __repr__(self) -> str:
        return f"Lambda({self.function!r})"


class Compose(FlowFunction[D]):
    """Sequential composition: apply ``first``, then ``second`` pointwise."""

    def __init__(self, first: FlowFunction[D], second: FlowFunction[D]) -> None:
        self.first = first
        self.second = second

    def compute_targets(self, fact: D) -> FrozenSet[D]:
        result: FrozenSet[D] = frozenset()
        for intermediate in self.first.compute_targets(fact):
            result |= self.second.compute_targets(intermediate)
        return result

    def __repr__(self) -> str:
        return f"Compose({self.first!r}, {self.second!r})"


class Union(FlowFunction[D]):
    """Pointwise union of several flow functions."""

    def __init__(self, *functions: FlowFunction[D]) -> None:
        self.functions = functions

    def compute_targets(self, fact: D) -> FrozenSet[D]:
        result: FrozenSet[D] = frozenset()
        for function in self.functions:
            result |= function.compute_targets(fact)
        return result

    def __repr__(self) -> str:
        return f"Union({', '.join(map(repr, self.functions))})"
