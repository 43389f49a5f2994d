"""The fact and handle contract the solvers' hot tables rely on.

Facts are tagged tuples of strings, so they hash and compare in C and
their hashes do not depend on object addresses.  Constraint and method
handles are interned and hash by identity.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analyses import DefFact, FieldFact, LocalFact, TypedField, TypedLocal
from repro.constraints.bddsystem import BddConstraint
from repro.ifds.problem import ZERO, ZeroFact
from repro.ir import Instruction, lower_program
from repro.ir.program import IRMethod
from repro.minijava import parse_program

SOURCE = "class Main { void main() { int x = 1; int y = 2; print(x); } }"


def main_instructions():
    """The instructions of ``Main.main`` in a freshly lowered program."""
    program = lower_program(parse_program(SOURCE))
    return program.method("Main.main").instructions


#: (class, field values, another value for each field, attribute names, repr)
CASES = [
    (LocalFact, ("x",), ("y",), ("name",), "x"),
    (FieldFact, ("A", "f"), ("B", "g"), ("class_name", "field_name"), "A.f"),
    (TypedLocal, ("x", "A"), ("y", "B"), ("name", "class_name"), "x:A"),
    (
        TypedField,
        ("A", "f", "B"),
        ("C", "g", "D"),
        ("declaring_class", "field_name", "class_name"),
        "A.f:B",
    ),
]
IDS = [case[0].__name__ for case in CASES]


class TestValueFacts:
    @pytest.mark.parametrize("cls, fields, others, attrs, text", CASES, ids=IDS)
    def test_equal_iff_fields_equal(self, cls, fields, others, attrs, text):
        fact = cls(*fields)
        assert fact == cls(*fields)
        assert hash(fact) == hash(cls(*fields))
        for position, other in enumerate(others):
            changed = list(fields)
            changed[position] = other
            assert fact != cls(*changed)

    @pytest.mark.parametrize("cls, fields, others, attrs, text", CASES, ids=IDS)
    def test_repr_and_attributes(self, cls, fields, others, attrs, text):
        fact = cls(*fields)
        assert repr(fact) == text
        assert str(fact) == text
        assert tuple(getattr(fact, attr) for attr in attrs) == fields

    @pytest.mark.parametrize("cls, fields, others, attrs, text", CASES, ids=IDS)
    def test_attributes_cannot_be_assigned(self, cls, fields, others, attrs, text):
        fact = cls(*fields)
        for attr in attrs + ("extra",):
            with pytest.raises(AttributeError):
                setattr(fact, attr, "z")
        assert tuple(getattr(fact, attr) for attr in attrs) == fields

    @pytest.mark.parametrize("cls, fields, others, attrs, text", CASES, ids=IDS)
    def test_copy_and_pickle_keep_the_fact(self, cls, fields, others, attrs, text):
        fact = cls(*fields)
        for clone in (copy.copy(fact), pickle.loads(pickle.dumps(fact))):
            assert type(clone) is cls and clone == fact

    def test_same_fields_different_class_differ(self):
        assert FieldFact("A", "f") != TypedLocal("A", "f")
        assert LocalFact("x") != DefFact("x", main_instructions()[0])
        facts = [cls(*fields) for cls, fields, *_ in CASES] + [ZERO]
        assert len(set(facts)) == len(facts)
        assert LocalFact("0") != ZERO


class TestZeroFact:
    def test_singleton(self):
        assert ZeroFact() is ZERO
        assert copy.copy(ZERO) is ZERO
        assert pickle.loads(pickle.dumps(ZERO)) is ZERO
        assert repr(ZERO) == "0"


class TestDefFact:
    def test_equal_iff_name_and_site_location_equal(self):
        first, second = main_instructions(), main_instructions()
        # Distinct Instruction objects at the same location.
        assert first[0] is not second[0]
        assert first[0].location == second[0].location
        assert DefFact("x", first[0]) == DefFact("x", second[0])
        assert hash(DefFact("x", first[0])) == hash(DefFact("x", second[0]))
        assert DefFact("x", first[0]) != DefFact("x", first[1])
        assert DefFact("x", first[0]) != DefFact("y", first[0])

    def test_repr_site_and_attributes(self):
        site = main_instructions()[1]
        fact = DefFact("y", site)
        assert repr(fact) == "y@Main.main:1"
        assert fact.name == "y"
        assert fact.site is site
        for attr in ("name", "site"):
            with pytest.raises(AttributeError):
                setattr(fact, attr, "z")
        assert fact.name == "y" and fact.site is site

    def test_copy_keeps_the_site(self):
        site = main_instructions()[0]
        clone = copy.copy(DefFact("x", site))
        assert clone == DefFact("x", site)
        assert clone.site is site


HASH_SCRIPT = """
from repro.analyses import DefFact, FieldFact, LocalFact, TypedField, TypedLocal
from repro.ifds.problem import ZERO
from repro.ir import lower_program
from repro.minijava import parse_program

program = lower_program(parse_program({source!r}))
site = program.method("Main.main").instructions[0]
facts = [
    LocalFact("x"), FieldFact("A", "f"), TypedLocal("x", "A"),
    TypedField("A", "f", "B"), DefFact("x", site), ZERO,
]
print([hash(fact) for fact in facts])
"""


def test_hashes_equal_across_processes():
    """No fact hash depends on an object address, so two interpreters at
    one hash seed agree on every one."""
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src_root)
    script = HASH_SCRIPT.format(source=SOURCE)
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            env=env,
            timeout=60,
            check=True,
        ).stdout
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]


class TestHashesInC:
    """Pin the representation: the solvers' hottest keys must hash and
    compare without a Python-level method call."""

    @pytest.mark.parametrize(
        "cls", [LocalFact, FieldFact, TypedLocal, TypedField, DefFact, ZeroFact]
    )
    def test_facts_hash_as_tuples(self, cls):
        assert cls.__hash__ is tuple.__hash__
        assert cls.__eq__ is tuple.__eq__

    @pytest.mark.parametrize("cls", [BddConstraint, IRMethod])
    def test_handles_hash_by_identity(self, cls):
        assert cls.__hash__ is object.__hash__
        assert cls.__eq__ is object.__eq__

    def test_instructions_hash_by_identity(self):
        first, second = main_instructions(), main_instructions()
        for instruction in first:
            assert isinstance(instruction, Instruction)
            assert type(instruction).__hash__ is object.__hash__
        assert first[0] != second[0]
