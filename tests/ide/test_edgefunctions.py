"""Tests for the generic edge functions and the constraint edge algebra."""

import pytest

from repro.constraints import BddConstraintSystem
from repro.core.lifting import ConstraintEdge, EdgeFunctionTable
from repro.ide import AllTop, IdentityEdge
from repro.ide.edgefunctions import _ACTIVE_DELEGATIONS, EdgeFunction


@pytest.fixture
def system():
    return BddConstraintSystem()


@pytest.fixture
def interned(system):
    """Edge constructor: every ``ConstraintEdge`` lives in a table."""
    return EdgeFunctionTable(system).edge


class TestGenericEdgeFunctions:
    def test_identity(self):
        identity = IdentityEdge()
        assert identity.compute_target("v") == "v"
        assert identity.compose_with(AllTop(False)).equal_to(AllTop(False))
        assert identity.equal_to(IdentityEdge())

    def test_all_top(self):
        all_top = AllTop(False)
        assert all_top.compute_target(True) is False
        assert all_top.compose_with(IdentityEdge()) is all_top
        assert all_top.join_with(IdentityEdge()).equal_to(IdentityEdge())
        assert all_top.equal_to(AllTop(False))
        assert not all_top.equal_to(IdentityEdge())

    def test_identity_join_with_all_top(self):
        identity = IdentityEdge()
        assert identity.join_with(AllTop(False)).equal_to(identity)


class _DelegatingEdge(EdgeFunction):
    """A foreign edge function that bounces join/equality back to the
    other operand — the pattern that used to send ``IdentityEdge`` into
    infinite mutual recursion."""

    def compute_target(self, source):
        return source

    def compose_with(self, second):
        return second

    def join_with(self, other):
        return other.join_with(self)

    def equal_to(self, other):
        return other.equal_to(self)


class TestMutualDelegation:
    """Regression: IdentityEdge delegating to a function that delegates
    straight back must terminate instead of raising RecursionError."""

    def test_join_raises_type_error_not_recursion(self):
        with pytest.raises(TypeError, match="delegate the join"):
            IdentityEdge().join_with(_DelegatingEdge())

    def test_equality_is_conservatively_false(self):
        assert IdentityEdge().equal_to(_DelegatingEdge()) is False

    def test_guard_state_is_cleaned_up(self):
        identity, foreign = IdentityEdge(), _DelegatingEdge()
        identity.equal_to(foreign)
        with pytest.raises(TypeError):
            identity.join_with(foreign)
        assert not _ACTIVE_DELEGATIONS

    def test_delegation_to_cooperative_function_still_works(self):
        """The guard must not break legitimate delegation: a foreign
        function that *answers* the join keeps working."""

        class _Answering(_DelegatingEdge):
            def join_with(self, other):
                return self

            def equal_to(self, other):
                return isinstance(other, _Answering)

        answering = _Answering()
        assert IdentityEdge().join_with(answering) is answering


class TestConstraintEdge:
    def test_compute_target_conjoins(self, system, interned):
        f = system.var("F")
        edge = interned(f)
        assert edge.compute_target(system.true) == f
        assert edge.compute_target(~f).is_false

    def test_compose_conjoins(self, system, interned):
        f, g = system.var("F"), system.var("G")
        composed = interned(f).compose_with(interned(g))
        assert isinstance(composed, ConstraintEdge)
        assert composed.constraint == (f & g)

    def test_join_disjoins(self, system, interned):
        f, g = system.var("F"), system.var("G")
        joined = interned(f).join_with(interned(g))
        assert joined.constraint == (f | g)

    def test_contradiction_equals_all_top(self, system, interned):
        f = system.var("F")
        contradiction = interned(f).compose_with(interned(~f))
        assert contradiction.equal_to(AllTop(system.false))

    def test_compose_with_all_top_is_all_top(self, system, interned):
        all_top = AllTop(system.false)
        result = interned(system.var("F")).compose_with(all_top)
        assert result is all_top

    def test_join_with_all_top_is_self(self, system, interned):
        edge = interned(system.var("F"))
        assert edge.join_with(AllTop(system.false)) is edge

    def test_equality_is_constraint_equality(self, system, interned):
        f, g = system.var("F"), system.var("G")
        lhs = interned(~(f & g))
        rhs = interned((~f) | (~g))
        assert lhs.equal_to(rhs)  # canonical BDDs: same function, equal
        # Another table's flyweight is another instance, yet equal.
        other = EdgeFunctionTable(system).edge((~f) | (~g))
        assert other is not lhs
        assert lhs.equal_to(other) and other.equal_to(lhs)
        assert not lhs.equal_to(interned(f))

    def test_paper_section_3_4_composition(self, system, interned):
        """Constraints along a path conjoin; merge points disjoin."""
        f, g, h = system.var("F"), system.var("G"), system.var("H")
        path1 = (
            interned(system.true)
            .compose_with(interned(~f))
            .compose_with(interned(g))
            .compose_with(interned(~h))
        )
        path2 = interned(system.false)
        merged = path1.join_with(path2)
        assert merged.constraint == system.parse("!F && G && !H")

    def test_algebra_is_closed(self, system, interned):
        """compose/join of λc.c∧A functions stay in the family — the
        property that makes the lifting encodable in IDE (Section 8)."""
        edges = [
            interned(system.var("F")),
            interned(~system.var("G")),
            interned(system.true),
            interned(system.false),
        ]
        for left in edges:
            for right in edges:
                assert isinstance(left.compose_with(right), ConstraintEdge)
                assert isinstance(left.join_with(right), ConstraintEdge)

    def test_type_errors(self, system, interned):
        edge = interned(system.var("F"))
        with pytest.raises(TypeError):
            edge.compose_with(IdentityEdge())
        with pytest.raises(TypeError):
            edge.join_with(IdentityEdge())
