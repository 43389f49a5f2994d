"""Flyweight edge-function interning and the memoized constraint algebra.

Property-style checks that the :class:`EdgeFunctionTable` fast path is a
pure optimization: interned compose/join must agree with the formula-level
reference semantics (computed through the independent DNF backend), and the
cache counters must behave like counters.
"""

import random
import sys

import pytest

from repro.analyses import ReachingDefinitionsAnalysis, TaintAnalysis
from repro.constraints import BddConstraintSystem, DnfConstraintSystem
from repro.constraints.bddsystem import BddConstraint
from repro.core import SPLLift
from repro.core.lifting import EdgeFunctionTable, LiftedProblem
from repro.spl import figure1, gpl_like

FEATURES = ("F", "G", "H", "K")


def _random_spec(rng, depth=3):
    """A backend-independent formula spec tree."""
    if depth == 0 or rng.random() < 0.3:
        return ("var", rng.choice(FEATURES))
    op = rng.choice(("and", "or", "not"))
    if op == "not":
        return ("not", _random_spec(rng, depth - 1))
    return (op, _random_spec(rng, depth - 1), _random_spec(rng, depth - 1))


def _build(spec, system):
    if spec[0] == "var":
        return system.var(spec[1])
    if spec[0] == "not":
        return system.not_(_build(spec[1], system))
    left, right = _build(spec[1], system), _build(spec[2], system)
    return system.and_(left, right) if spec[0] == "and" else system.or_(left, right)


def _assignments():
    for bits in range(2 ** len(FEATURES)):
        yield {
            feature: bool(bits >> i & 1) for i, feature in enumerate(FEATURES)
        }


def _same_function(bdd_constraint, dnf_constraint):
    """Semantic equality across backends: agree on every assignment."""
    return all(
        bdd_constraint.satisfied_by(a) == dnf_constraint.satisfied_by(a)
        for a in _assignments()
    )


@pytest.fixture
def table():
    return EdgeFunctionTable(BddConstraintSystem())


class TestInterning:
    def test_equal_constraints_intern_to_one_instance(self, table):
        f = table.system.var("F")
        g = table.system.var("G")
        lhs = table.edge(table.system.not_(table.system.and_(f, g)))
        rhs = table.edge(
            table.system.or_(table.system.not_(f), table.system.not_(g))
        )
        # Canonical BDDs: De Morgan equals collapse to the same flyweight.
        assert lhs is rhs

    def test_flyweight_equality_is_identity(self, table):
        f_edge = table.edge(table.system.var("F"))
        g_edge = table.edge(table.system.var("G"))
        assert f_edge.equal_to(f_edge)
        assert not f_edge.equal_to(g_edge)

    def test_compose_and_join_return_interned_edges(self, table):
        f_edge = table.edge(table.system.var("F"))
        g_edge = table.edge(table.system.var("G"))
        composed = f_edge.compose_with(g_edge)
        joined = f_edge.join_with(g_edge)
        assert composed is table.edge(composed.constraint)
        assert joined is table.edge(joined.constraint)

    def test_repeat_operations_return_identical_objects(self, table):
        f_edge = table.edge(table.system.var("F"))
        g_edge = table.edge(table.system.var("G"))
        assert f_edge.compose_with(g_edge) is f_edge.compose_with(g_edge)
        assert f_edge.join_with(g_edge) is g_edge.join_with(f_edge)


class TestAlgebraAgreesWithFormulaBackend:
    """Randomized pairs: the memoized BDD-backed algebra must compute the
    same boolean function as the independent DNF reference backend."""

    def test_compose_matches_reference_conjunction(self, table):
        rng = random.Random(20130601)
        reference = DnfConstraintSystem()
        for _ in range(40):
            spec_a, spec_b = _random_spec(rng), _random_spec(rng)
            interned = table.edge(_build(spec_a, table.system)).compose_with(
                table.edge(_build(spec_b, table.system))
            )
            expected = reference.and_(
                _build(spec_a, reference), _build(spec_b, reference)
            )
            assert _same_function(interned.constraint, expected)

    def test_join_matches_reference_disjunction(self, table):
        rng = random.Random(19950129)
        reference = DnfConstraintSystem()
        for _ in range(40):
            spec_a, spec_b = _random_spec(rng), _random_spec(rng)
            interned = table.edge(_build(spec_a, table.system)).join_with(
                table.edge(_build(spec_b, table.system))
            )
            expected = reference.or_(
                _build(spec_a, reference), _build(spec_b, reference)
            )
            assert _same_function(interned.constraint, expected)


class TestCacheCounters:
    def test_counters_are_monotone(self, table):
        f_edge = table.edge(table.system.var("F"))
        g_edge = table.edge(table.system.var("G"))
        seen = table.cache_stats()
        for _ in range(5):
            f_edge.compose_with(g_edge)
            f_edge.join_with(g_edge)
            current = table.cache_stats()
            for key, value in seen.items():
                if key in current:
                    assert current[key] >= value
            seen = {k: current[k] for k in seen if k in current}

    def test_hit_miss_accounting(self, table):
        f_edge = table.edge(table.system.var("F"))
        g_edge = table.edge(table.system.var("G"))
        f_edge.compose_with(g_edge)
        assert table.cache_stats()["compose_cache_misses"] == 1
        f_edge.compose_with(g_edge)
        assert table.cache_stats()["compose_cache_hits"] == 1
        # Commutative-key normalization: the mirrored join shares the entry.
        f_edge.join_with(g_edge)
        g_edge.join_with(f_edge)
        assert table.cache_stats()["join_cache_misses"] == 1
        assert table.cache_stats()["join_cache_hits"] == 1

    def test_interned_edge_count_reported(self, table):
        table.edge(table.system.var("F"))
        stats = table.cache_stats()
        # true/false plus F (seed constants are interned lazily on demand).
        assert stats["interned_edges"] == len(table._edges)

    def test_solver_stats_report_cache_counters(self):
        product_line = figure1()
        spllift = SPLLift(
            TaintAnalysis(product_line.icfg),
            feature_model=product_line.feature_model,
        )
        results = spllift.solve()
        for key in (
            "compose_cache_hits",
            "compose_cache_misses",
            "join_cache_hits",
            "join_cache_misses",
            "interned_edges",
        ):
            assert key in results.stats, key
        assert results.stats["interned_edges"] > 0
        assert results.stats["compose_cache_hits"] >= 0


class TestOneConjunctionPerLabel:
    def test_each_label_meets_the_feature_model_once(self, monkeypatch):
        """A Figure 4 label depends only on its statement, so a default
        GPL-like RD solve conjoins each distinct label with the feature
        model once, not once per exploded edge (Section 4.2)."""
        product_line = gpl_like()
        spllift = SPLLift(
            ReachingDefinitionsAnalysis(product_line.icfg),
            feature_model=product_line.feature_model,
        )
        model = spllift.feature_model
        edge_code = LiftedProblem._edge.__code__
        conjoin = BddConstraint.__and__
        labels = []

        def spy(left, right):
            if right is model and sys._getframe(1).f_code is edge_code:
                labels.append(left)
            return conjoin(left, right)

        monkeypatch.setattr(BddConstraint, "__and__", spy)
        spllift.solve()
        assert len(labels) > 10
        assert len(labels) == len(set(labels))
