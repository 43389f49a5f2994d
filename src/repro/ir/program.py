"""IR-level program structure: classes, methods, and the class hierarchy.

The hierarchy powers the class-hierarchy-analysis (CHA) call graph.  As in
the paper's implementation (Section 5, "Current Limitations"), the call
graph is computed *feature-insensitively*: every method and every call site
of the product line participates, regardless of annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.constraints.formula import Formula
from repro.ir.instructions import Instruction, Return
from repro.minijava.ast import Type

__all__ = ["IRMethod", "IRClass", "IRProgram", "IRError"]


class IRError(ValueError):
    """Raised for malformed IR (unknown classes, unresolvable methods)."""


@dataclass(eq=False)
class IRMethod:
    """One lowered method body; compares and hashes by identity.

    ``params`` excludes the implicit ``this`` receiver, which is always the
    local named ``"this"``.  ``source_locals`` are the locals that appear in
    source declarations (as opposed to compiler temps) — the set the
    uninitialized-variables analysis seeds.
    """

    class_name: str
    name: str
    params: Tuple[str, ...]
    return_type: Type
    instructions: List[Instruction] = field(default_factory=list)
    local_types: Dict[str, Type] = field(default_factory=dict)
    source_locals: Tuple[str, ...] = ()
    annotation: Optional[Formula] = None

    @property
    def qualified_name(self) -> str:
        return f"{self.class_name}.{self.name}"

    @property
    def locals(self) -> Tuple[str, ...]:
        """All locals, including parameters, temps and ``this``."""
        return tuple(self.local_types)

    def finalize(self) -> "IRMethod":
        """Assign back-references and indices; ensure a trailing return.

        The trailing return must be *unannotated*: in a lifted CFG an
        annotated (disabled) return falls through, so every method needs an
        unconditional exit to fall through to.
        """
        last = self.instructions[-1] if self.instructions else None
        if not isinstance(last, Return) or last.annotation is not None:
            self.instructions.append(Return(None))
        for index, instruction in enumerate(self.instructions):
            instruction.method = self
            instruction.index = index
        return self

    @property
    def start_point(self) -> Instruction:
        return self.instructions[0]

    @property
    def exit_points(self) -> Tuple[Instruction, ...]:
        return tuple(
            instruction
            for instruction in self.instructions
            if isinstance(instruction, Return)
        )

    def __str__(self) -> str:
        params = ", ".join(self.params)
        lines = [f"{self.return_type} {self.qualified_name}({params}) {{"]
        for instruction in self.instructions:
            lines.append(f"  {instruction.index:3}: {instruction}")
        lines.append("}")
        return "\n".join(lines)


@dataclass
class IRClass:
    """One class: fields (with their declared types) and methods."""

    name: str
    superclass: Optional[str]
    fields: Dict[str, Type] = field(default_factory=dict)
    methods: Dict[str, IRMethod] = field(default_factory=dict)


class IRProgram:
    """A whole lowered product line plus hierarchy queries."""

    def __init__(self, classes: Iterable[IRClass]) -> None:
        self.classes: Dict[str, IRClass] = {}
        for cls in classes:
            if cls.name in self.classes:
                raise IRError(f"duplicate class {cls.name!r}")
            self.classes[cls.name] = cls
        for cls in self.classes.values():
            if cls.superclass is not None and cls.superclass not in self.classes:
                raise IRError(
                    f"class {cls.name!r} extends unknown class {cls.superclass!r}"
                )
        self._subclasses: Dict[str, Set[str]] = {name: set() for name in self.classes}
        for cls in self.classes.values():
            if cls.superclass is not None:
                self._subclasses[cls.superclass].add(cls.name)

    # ------------------------------------------------------------------
    # Hierarchy
    # ------------------------------------------------------------------

    def class_named(self, name: str) -> IRClass:
        try:
            return self.classes[name]
        except KeyError:
            raise IRError(f"unknown class {name!r}") from None

    def supertypes(self, name: str) -> Iterator[str]:
        """``name`` and its ancestors, nearest first."""
        current: Optional[str] = name
        while current is not None:
            yield current
            current = self.class_named(current).superclass

    def subtypes(self, name: str) -> Iterator[str]:
        """``name`` and all transitive subclasses (pre-order)."""
        self.class_named(name)
        stack = [name]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(sorted(self._subclasses[current], reverse=True))

    def resolve_method(self, class_name: str, method_name: str) -> Optional[IRMethod]:
        """Walk up the hierarchy to find the implementation of a method."""
        for ancestor in self.supertypes(class_name):
            method = self.classes[ancestor].methods.get(method_name)
            if method is not None:
                return method
        return None

    def resolve_field(self, class_name: str, field_name: str) -> Optional[Tuple[str, Type]]:
        """Find the declaring class and type of a field, walking up."""
        for ancestor in self.supertypes(class_name):
            field_type = self.classes[ancestor].fields.get(field_name)
            if field_type is not None:
                return ancestor, field_type
        return None

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------

    def all_methods(self) -> Iterator[IRMethod]:
        for cls in self.classes.values():
            yield from cls.methods.values()

    def method(self, qualified_name: str) -> IRMethod:
        """Look up ``Class.method``."""
        class_name, _, method_name = qualified_name.partition(".")
        cls = self.class_named(class_name)
        try:
            return cls.methods[method_name]
        except KeyError:
            raise IRError(f"unknown method {qualified_name!r}") from None

    def __str__(self) -> str:
        parts = []
        for cls in self.classes.values():
            heritage = f" extends {cls.superclass}" if cls.superclass else ""
            parts.append(f"class {cls.name}{heritage} {{")
            for field_name, field_type in cls.fields.items():
                parts.append(f"  {field_type} {field_name};")
            for method in cls.methods.values():
                parts.append("  " + str(method).replace("\n", "\n  "))
            parts.append("}")
        return "\n".join(parts)
