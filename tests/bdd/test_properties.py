"""Property-based tests: BDD semantics against brute-force evaluation,
and the balanced n-ary folds against pairwise folds."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.bdd import BDDManager
from repro.constraints.bddsystem import BddConstraintSystem
from repro.constraints.formula import (
    And,
    FalseConst,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    TrueConst,
    Var,
)

VARS = ("a", "b", "c", "d")


def formulas(max_depth: int = 4) -> st.SearchStrategy[Formula]:
    base = st.one_of(
        st.sampled_from([TrueConst(), FalseConst()]),
        st.sampled_from(VARS).map(Var),
    )

    def extend(children):
        return st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda t: And(t)),
            st.tuples(children, children).map(lambda t: Or(t)),
            st.tuples(children, children).map(lambda t: Implies(*t)),
            st.tuples(children, children).map(lambda t: Iff(*t)),
        )

    return st.recursive(base, extend, max_leaves=12)


def all_assignments():
    for bits in itertools.product((False, True), repeat=len(VARS)):
        yield dict(zip(VARS, bits))


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_bdd_matches_brute_force_evaluation(formula):
    mgr = BDDManager(ordering=VARS)
    node = formula.to_bdd(mgr)
    for assignment in all_assignments():
        assert mgr.evaluate(node, assignment) == formula.evaluate(assignment)


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_satcount_matches_brute_force(formula):
    mgr = BDDManager(ordering=VARS)
    node = formula.to_bdd(mgr)
    expected = sum(
        1 for assignment in all_assignments() if formula.evaluate(assignment)
    )
    assert mgr.satcount(node, over=VARS) == expected


@given(formulas(), formulas())
@settings(max_examples=200, deadline=None)
def test_canonicity(f, g):
    """Two formulas denote the same function iff they share a node."""
    mgr = BDDManager(ordering=VARS)
    node_f, node_g = f.to_bdd(mgr), g.to_bdd(mgr)
    semantically_equal = all(
        f.evaluate(a) == g.evaluate(a) for a in all_assignments()
    )
    assert (node_f == node_g) == semantically_equal


@given(formulas())
@settings(max_examples=100, deadline=None)
def test_double_negation_is_identity(formula):
    mgr = BDDManager(ordering=VARS)
    node = formula.to_bdd(mgr)
    assert mgr.not_(mgr.not_(node)) == node


@given(formulas(), formulas())
@settings(max_examples=100, deadline=None)
def test_de_morgan(f, g):
    mgr = BDDManager(ordering=VARS)
    nf, ng = f.to_bdd(mgr), g.to_bdd(mgr)
    assert mgr.not_(mgr.and_(nf, ng)) == mgr.or_(mgr.not_(nf), mgr.not_(ng))


@given(formulas(), st.sampled_from(VARS), st.booleans())
@settings(max_examples=150, deadline=None)
def test_restrict_is_shannon_cofactor(formula, name, value):
    mgr = BDDManager(ordering=VARS)
    node = formula.to_bdd(mgr)
    restricted = mgr.restrict(node, name, value)
    for assignment in all_assignments():
        pinned = dict(assignment)
        pinned[name] = value
        assert mgr.evaluate(restricted, assignment) == formula.evaluate(pinned)


@given(formulas(), st.sampled_from(VARS))
@settings(max_examples=100, deadline=None)
def test_exists_or_of_cofactors(formula, name):
    mgr = BDDManager(ordering=VARS)
    node = formula.to_bdd(mgr)
    expected = mgr.or_(
        mgr.restrict(node, name, False), mgr.restrict(node, name, True)
    )
    assert mgr.exists(node, [name]) == expected


@given(formulas())
@settings(max_examples=100, deadline=None)
def test_models_satisfy_formula(formula):
    mgr = BDDManager(ordering=VARS)
    node = formula.to_bdd(mgr)
    for model in mgr.iter_models(node, VARS):
        assert formula.evaluate(model)


@given(st.lists(formulas(), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_or_all_matches_pairwise_fold(forms):
    system = BddConstraintSystem()
    constraints = [system.from_formula(f) for f in forms]
    folded = system.false
    for constraint in constraints:
        folded = system.or_(folded, constraint)
    assert system.or_all(constraints) is folded


@given(st.lists(formulas(), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_and_all_matches_pairwise_fold(forms):
    mgr = BDDManager(ordering=VARS)
    nodes = [f.to_bdd(mgr) for f in forms]
    folded = mgr.true
    for node in nodes:
        folded = mgr.and_(folded, node)
    assert mgr.and_all(nodes) == folded
