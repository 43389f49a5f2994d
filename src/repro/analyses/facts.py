"""Fact abstractions shared by the client analyses.

Facts must be hashable values; the IFDS framework is oblivious to their
structure (Section 2.1 of the paper).  Locals are naturally method-scoped
(Jimple locals), fields are abstracted by their declaring class and name —
i.e. receiver objects are merged, matching the paper's treatment of field
assignments "in a field-sensitive manner, abstracting from receiver
objects through their context-insensitive points-to sets".

The solvers key path edges, jump tables and memo caches on (statement,
fact) tuples, so fact hashing sits on the tabulation hot path.  Each fact
is therefore a tagged tuple of strings — ``(class tag, *fields)`` — that
tuple hashes and compares in C.  The tag makes two facts equal only if
they have the same class and the same fields, and a hash built from
strings alone does not depend on object addresses, so the order in which
the solvers iterate facts (and with it their work counters) is the same
in every process at a fixed ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import sys
from operator import itemgetter

from repro.ir.instructions import Instruction

__all__ = ["LocalFact", "FieldFact", "TypedLocal", "TypedField", "DefFact"]


class _Fact(tuple):
    """A fact is the tuple ``(tag, *fields)``; subclasses add no slots."""

    __slots__ = ()

    def __getnewargs__(self) -> tuple:
        # Copy and pickle rebuild a fact from its fields, not its tuple.
        return self[1:]


class LocalFact(_Fact):
    """A property (e.g. tainted, uninitialized) of one local variable."""

    __slots__ = ()

    def __new__(cls, name: str) -> "LocalFact":
        return tuple.__new__(cls, ("local", name))

    name = property(itemgetter(1))

    def __repr__(self) -> str:
        return self[1]


class FieldFact(_Fact):
    """A property of a field, merged over all receiver objects."""

    __slots__ = ()

    def __new__(cls, class_name: str, field_name: str) -> "FieldFact":
        return tuple.__new__(cls, ("field", class_name, field_name))

    class_name = property(itemgetter(1))
    field_name = property(itemgetter(2))

    def __repr__(self) -> str:
        return f"{self[1]}.{self[2]}"


class TypedLocal(_Fact):
    """Possible-types fact: local ``name`` may refer to a ``class_name``."""

    __slots__ = ()

    def __new__(cls, name: str, class_name: str) -> "TypedLocal":
        return tuple.__new__(cls, ("tlocal", name, class_name))

    name = property(itemgetter(1))
    class_name = property(itemgetter(2))

    def __repr__(self) -> str:
        return f"{self[1]}:{self[2]}"


class TypedField(_Fact):
    """Possible-types fact for a field (receivers merged)."""

    __slots__ = ()

    def __new__(
        cls, declaring_class: str, field_name: str, class_name: str
    ) -> "TypedField":
        return tuple.__new__(
            cls, ("tfield", declaring_class, field_name, class_name)
        )

    declaring_class = property(itemgetter(1))
    field_name = property(itemgetter(2))
    class_name = property(itemgetter(3))

    def __repr__(self) -> str:
        return f"{self[1]}.{self[2]}:{self[3]}"


class DefFact(_Fact):
    """Reaching-definitions fact: ``name`` may hold the value assigned at
    ``site``.  The variable name is rebound as the definition crosses
    parameter and return-value assignments.

    The tuple holds the site's ``location`` (``Class.method:index``), not
    the :class:`Instruction`, which hashes by identity; the instruction
    itself is kept beside the tuple for the flows that read ``site``.
    """

    # No __slots__: a tuple subclass cannot add slots, so ``site`` lives
    # in the instance dict.

    def __new__(cls, name: str, site: Instruction) -> "DefFact":
        # Interned, so the facts of one site share one location string
        # rather than each holding a copy.
        fact = tuple.__new__(cls, ("def", name, sys.intern(site.location)))
        fact._site = site
        return fact

    def __getnewargs__(self) -> tuple:
        return self[1], self._site

    name = property(itemgetter(1))

    @property
    def site(self) -> Instruction:
        return self._site

    def __repr__(self) -> str:
        return f"{self[1]}@{self[2]}"
