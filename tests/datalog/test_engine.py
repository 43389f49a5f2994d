"""Unit tests for the generic semi-naive core (repro.datalog.engine)."""

import pytest

from repro.constraints import BddConstraintSystem
from repro.datalog import Relation, Rule, SemiNaiveEvaluator, resolve_engine


@pytest.fixture
def system():
    return BddConstraintSystem()


class TestRelationAdvance:
    def test_first_insertion_enters_delta_and_fires_hook(self, system):
        relation = Relation("r")
        seen = []
        relation.on_insert = seen.append
        relation.contribute(("a",), system.var("F"))
        counters = dict.fromkeys(
            ("tuples_derived", "subsumption_hits", "or_all_batches", "delta_tuples"), 0
        )
        assert relation.advance(system, counters)
        assert relation.tuples[("a",)] == system.var("F")
        assert relation.delta == {("a",): system.var("F")}
        assert seen == [("a",)]
        assert counters["tuples_derived"] == 1
        assert counters["or_all_batches"] == 0  # single contribution: no fold

    def test_multiple_contributions_folded_with_one_or_all(self, system):
        relation = Relation("r")
        relation.contribute(("a",), system.var("F"))
        relation.contribute(("a",), system.var("G"))
        counters = dict.fromkeys(
            ("tuples_derived", "subsumption_hits", "or_all_batches", "delta_tuples"), 0
        )
        relation.advance(system, counters)
        assert relation.tuples[("a",)] == system.var("F") | system.var("G")
        assert counters["or_all_batches"] == 1

    def test_false_contribution_is_not_a_tuple(self, system):
        relation = Relation("r")
        relation.contribute(("a",), system.false)
        assert not relation.pending
        counters = dict.fromkeys(
            ("tuples_derived", "subsumption_hits", "or_all_batches", "delta_tuples"), 0
        )
        assert not relation.advance(system, counters)
        assert len(relation) == 0

    def test_subsumed_contribution_retracted(self, system):
        """Re-deriving under an implied constraint must not re-enter the delta."""
        relation = Relation("r")
        counters = dict.fromkeys(
            ("tuples_derived", "subsumption_hits", "or_all_batches", "delta_tuples"), 0
        )
        relation.contribute(("a",), system.var("F") | system.var("G"))
        relation.advance(system, counters)
        relation.contribute(("a",), system.var("F"))  # implied by F|G
        assert not relation.advance(system, counters)
        assert counters["subsumption_hits"] == 1
        assert relation.tuples[("a",)] == system.var("F") | system.var("G")

    def test_widening_contribution_becomes_delta(self, system):
        relation = Relation("r")
        counters = dict.fromkeys(
            ("tuples_derived", "subsumption_hits", "or_all_batches", "delta_tuples"), 0
        )
        relation.contribute(("a",), system.var("F"))
        relation.advance(system, counters)
        relation.contribute(("a",), system.var("G"))
        assert relation.advance(system, counters)
        assert relation.tuples[("a",)] == system.var("F") | system.var("G")
        # The delta carries the *batch*, not the joined store — downstream
        # rules re-fire only on what is new.
        assert relation.delta == {("a",): system.var("G")}


def edge_closure_rules(system, edge, path):
    """Transitive closure: path(x,y) :- edge(x,y); path(x,z) :- path(x,y), edge(y,z)."""

    def copy_edges(relation, delta):
        for key, constraint in delta.items():
            path.contribute(key, constraint)

    def extend(relation, delta):
        if relation is path:
            for (x, y), c in delta.items():
                for (y2, z), c2 in list(edge.tuples.items()):
                    if y2 == y:
                        path.contribute((x, z), c & c2)
        else:  # delta on edge
            for (y, z), c2 in delta.items():
                for (x, y2), c in list(path.tuples.items()):
                    if y2 == y:
                        path.contribute((x, z), c & c2)

    return [
        Rule("copy", (edge,), copy_edges),
        Rule("extend", (path, edge), extend),
    ]


class TestSemiNaiveEvaluator:
    def test_transitive_closure_fixpoint(self, system):
        edge, path = Relation("edge"), Relation("path")
        edge.contribute(("a", "b"), system.var("F"))
        edge.contribute(("b", "c"), system.var("G"))
        edge.contribute(("c", "d"), system.true)
        evaluator = SemiNaiveEvaluator(system, (edge, path))
        evaluator.evaluate([edge_closure_rules(system, edge, path)])
        assert path.tuples[("a", "c")] == system.var("F") & system.var("G")
        assert path.tuples[("a", "d")] == system.var("F") & system.var("G")
        assert path.tuples[("b", "d")] == system.var("G")
        assert len(path) == 6

    def test_deltas_exhausted_after_evaluate(self, system):
        """On return every relation's delta AND pending must be empty."""
        edge, path = Relation("edge"), Relation("path")
        edge.contribute(("a", "b"), system.true)
        edge.contribute(("b", "a"), system.true)  # a cycle, to iterate
        evaluator = SemiNaiveEvaluator(system, (edge, path))
        evaluator.evaluate([edge_closure_rules(system, edge, path)])
        for relation in (edge, path):
            assert not relation.delta
            assert not relation.pending
        assert evaluator.counters["iterations"] >= 2

    def test_cycle_terminates_by_subsumption(self, system):
        edge, path = Relation("edge"), Relation("path")
        edge.contribute(("a", "b"), system.var("F"))
        edge.contribute(("b", "a"), system.var("G"))
        evaluator = SemiNaiveEvaluator(system, (edge, path))
        evaluator.evaluate([edge_closure_rules(system, edge, path)])
        # Going around the loop again derives path(a,a) @ F&G&F&G = F&G,
        # which is subsumed — that is the only thing stopping iteration.
        assert evaluator.counters["subsumption_hits"] > 0
        assert path.tuples[("a", "a")] == system.var("F") & system.var("G")

    def test_stratum_ordering_replays_earlier_conclusions(self, system):
        """A later stratum's rules must see tuples the earlier stratum
        derived, even though its deltas are exhausted by then."""
        base, derived = Relation("base"), Relation("derived")

        def promote(relation, delta):
            for key, constraint in delta.items():
                derived.contribute(key, constraint)

        base.contribute(("x",), system.var("F"))
        evaluator = SemiNaiveEvaluator(system, (base, derived))
        evaluator.evaluate([[], [Rule("promote", (base,), promote)]])
        assert derived.tuples == {("x",): system.var("F")}
        assert evaluator.counters["strata"] == 2

    def test_rule_fired_once_per_dirty_body_relation(self, system):
        r1, r2, head = Relation("r1"), Relation("r2"), Relation("head")
        fires = []

        def record(relation, delta):
            fires.append(relation.name)

        r1.contribute(("a",), system.true)
        r2.contribute(("b",), system.true)
        evaluator = SemiNaiveEvaluator(system, (r1, r2, head))
        evaluator.evaluate([[Rule("watch", (r1, r2), record)]])
        assert sorted(fires) == ["r1", "r2"]
        assert evaluator.counters["rules_fired"] == 2


class TestResolveEngine:
    def test_default_is_tabulate(self):
        assert resolve_engine(None) == "tabulate"

    def test_explicit_beats_env(self, monkeypatch):
        # Only the argument selects an engine; the variable that once
        # did is ignored.
        monkeypatch.setenv("SPLLIFT_ENGINE", "datalog")
        assert resolve_engine("tabulate") == "tabulate"
        assert resolve_engine(None) == "tabulate"

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="bogus"):
            resolve_engine("bogus")
