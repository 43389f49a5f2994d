"""Tests for the cross-process constraint codec."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.bddsystem import BddConstraintSystem
from repro.constraints.dnf import DnfConstraintSystem
from repro.constraints.serialize import (
    CONSTRAINT_CODEC_SCHEMA,
    ConstraintCodecError,
    decode_constraints,
    encode_constraints,
)

VARS = ("A", "B", "C", "D", "E")


def terms(max_depth: int = 4):
    base = st.sampled_from(VARS)

    def build(system, spec):
        kind = spec[0]
        if kind == "var":
            return system.var(spec[1])
        if kind == "not":
            return ~build(system, spec[1])
        left, right = build(system, spec[1]), build(system, spec[2])
        return (left & right) if kind == "and" else (left | right)

    spec = st.recursive(
        base.map(lambda name: ("var", name)),
        lambda children: st.one_of(
            children.map(lambda c: ("not", c)),
            st.tuples(children, children).map(lambda t: ("and", *t)),
            st.tuples(children, children).map(lambda t: ("or", *t)),
        ),
        max_leaves=10,
    )
    return spec, build


SPEC, BUILD = terms()


class TestBddCodec:
    def test_round_trip_same_system(self):
        system = BddConstraintSystem()
        a, b, c = system.var("A"), system.var("B"), system.var("C")
        batch = [a & ~b, (a | c) & b, system.true, system.false, a]
        decoded = decode_constraints(
            system, encode_constraints(system, batch)
        )
        assert decoded == batch

    def test_round_trip_fresh_system(self):
        """A receiver with no declared variables reconstructs the same
        functions (its render order may differ — a lifted problem
        pre-declares its variables so it never does, see LiftedProblem)."""
        sender = BddConstraintSystem()
        a, b = sender.var("A"), sender.var("B")
        document = encode_constraints(sender, [a & ~b, a | b])
        receiver = BddConstraintSystem()
        decoded = decode_constraints(receiver, document)
        assert decoded[0] == receiver.var("A") & ~receiver.var("B")
        assert decoded[1] == receiver.var("A") | receiver.var("B")

    def test_round_trip_predeclared_receiver_renders_identically(self):
        """With the sender's declaration order replayed first (what
        LiftedProblem's up-front declaration guarantees for summary
        records), even the strings match."""
        sender = BddConstraintSystem()
        a, b = sender.var("A"), sender.var("B")
        batch = [a & ~b, a | b]
        document = encode_constraints(sender, batch)
        receiver = BddConstraintSystem()
        receiver.var("A"), receiver.var("B")
        decoded = decode_constraints(receiver, document)
        assert [str(c) for c in decoded] == [str(c) for c in batch]

    def test_cross_order_canonicalization(self):
        """Sender and receiver disagree on variable order; the decoded
        constraint is still semantically the sender's."""
        sender = BddConstraintSystem()
        constraint = sender.var("A") & ~sender.var("B") | sender.var("C")
        document = encode_constraints(sender, [constraint])

        receiver = BddConstraintSystem()
        receiver.var("C"), receiver.var("B"), receiver.var("A")
        (decoded,) = decode_constraints(receiver, document)
        expected = (
            receiver.var("A") & ~receiver.var("B") | receiver.var("C")
        )
        assert decoded == expected  # canonical in the receiver's order

    def test_batch_shares_node_table(self):
        """A constraint repeated across many roots costs one table entry
        set, and identical roots encode to identical refs."""
        system = BddConstraintSystem()
        constraint = system.var("A") & system.var("B")
        document = encode_constraints(system, [constraint] * 50)
        assert len(set(document["roots"])) == 1
        assert len(document["nodes"]) == 2  # one node per variable

    def test_terminals_only(self):
        system = BddConstraintSystem()
        document = encode_constraints(system, [system.true, system.false])
        assert document["nodes"] == []
        assert document["roots"] == [1, 0]
        assert decode_constraints(system, document) == [
            system.true,
            system.false,
        ]

    def test_schema_mismatch_rejected(self):
        system = BddConstraintSystem()
        with pytest.raises(ConstraintCodecError):
            decode_constraints(system, {"schema": "bogus/v9"})

    def test_unknown_codec_rejected(self):
        system = BddConstraintSystem()
        with pytest.raises(ConstraintCodecError):
            decode_constraints(
                system,
                {"schema": CONSTRAINT_CODEC_SCHEMA, "codec": "carrier-pigeon"},
            )

    def test_malformed_row_rejected(self):
        system = BddConstraintSystem()
        document = {
            "schema": CONSTRAINT_CODEC_SCHEMA,
            "codec": "bdd-nodes",
            "vars": ["A"],
            "nodes": [[0, 0]],  # missing the high ref
            "roots": [2],
        }
        with pytest.raises(ConstraintCodecError):
            decode_constraints(system, document)

    def test_dangling_root_rejected(self):
        system = BddConstraintSystem()
        document = {
            "schema": CONSTRAINT_CODEC_SCHEMA,
            "codec": "bdd-nodes",
            "vars": [],
            "nodes": [],
            "roots": [7],
        }
        with pytest.raises(ConstraintCodecError):
            decode_constraints(system, document)

    @given(specs=st.lists(SPEC, min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_random_batches_round_trip(self, specs):
        sender = BddConstraintSystem()
        batch = [BUILD(sender, spec) for spec in specs]
        document = encode_constraints(sender, batch)
        receiver = BddConstraintSystem()
        decoded = decode_constraints(receiver, document)
        rebuilt = [BUILD(receiver, spec) for spec in specs]
        assert decoded == rebuilt


class TestFormulaFallback:
    def test_dnf_round_trip(self):
        system = DnfConstraintSystem()
        a, b = system.var("A"), system.var("B")
        batch = [a & ~b, a | b, system.true, system.false]
        document = encode_constraints(system, batch)
        assert document["codec"] == "formula"
        assert decode_constraints(system, document) == batch
