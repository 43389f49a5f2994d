"""Worklist scheduling: BucketQueue, RPO prioritization, digest identity.

The IDE fixed point is iteration-order independent, so every scheduling
policy must produce bit-identical :meth:`result_digest` output — RPO only
changes *how fast* the solver gets there.  These tests pin that invariant
for the lifted pipeline and exercise the bucket queue the RPO order runs
on.
"""

import pytest

from repro.analyses import (
    ReachingDefinitionsAnalysis,
    TaintAnalysis,
    UninitializedVariablesAnalysis,
)
from repro.core import SPLLift
from repro.ide import IDESolver
from repro.ide.binary import ifds_as_ide
from repro.ide.solver import BucketQueue, WORKLIST_ORDERS, resolve_worklist_order
from repro.ifds import IFDSSolver
from repro.spl import device_spl, figure1


class TestBucketQueue:
    def test_pops_lowest_rank_first(self):
        queue = BucketQueue()
        queue.push(3, "c")
        queue.push(1, "a")
        queue.push(2, "b")
        assert queue.pop() == "a"
        assert queue.pop() == "b"
        assert queue.pop() == "c"

    def test_len_tracks_pushes_and_pops(self):
        queue = BucketQueue()
        assert len(queue) == 0
        queue.push(0, "a")
        queue.push(5, "b")
        assert len(queue) == 2
        queue.pop()
        assert len(queue) == 1
        queue.pop()
        assert len(queue) == 0

    def test_cursor_rewinds_on_lower_rank_push(self):
        queue = BucketQueue()
        queue.push(4, "late")
        assert queue.pop() == "late"
        # The cursor sits at rank 4 now; a lower-rank push must rewind it.
        queue.push(4, "late2")
        queue.push(1, "early")
        assert queue.pop() == "early"
        assert queue.pop() == "late2"

    def test_grows_to_arbitrary_ranks(self):
        queue = BucketQueue()
        queue.push(100, "far")
        queue.push(0, "near")
        assert queue.pop() == "near"
        assert queue.pop() == "far"

    def test_drains_same_rank_completely(self):
        queue = BucketQueue()
        for entry in ("a", "b", "c"):
            queue.push(2, entry)
        drained = {queue.pop(), queue.pop(), queue.pop()}
        assert drained == {"a", "b", "c"}
        assert len(queue) == 0


class TestResolveOrder:
    def test_orders_constant(self):
        assert WORKLIST_ORDERS == ("fifo", "lifo", "random", "rpo")

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("SPLLIFT_WORKLIST_ORDER", "lifo")
        assert resolve_worklist_order("rpo") == "rpo"

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("SPLLIFT_WORKLIST_ORDER", "rpo")
        assert resolve_worklist_order(None) == "rpo"

    def test_fifo_fallback(self, monkeypatch):
        monkeypatch.delenv("SPLLIFT_WORKLIST_ORDER", raising=False)
        assert resolve_worklist_order(None) == "fifo"


class TestRpoFixedPoint:
    def test_rpo_matches_reference_ifds(self):
        product_line = figure1()
        problem = TaintAnalysis(product_line.icfg)
        reference = IFDSSolver(problem).solve()
        ide_results = IDESolver(ifds_as_ide(problem), worklist_order="rpo").solve()
        for stmt in product_line.icfg.reachable_instructions():
            assert reference.at(stmt) == frozenset(ide_results.results_at(stmt))

    def test_ifds_rpo_matches_fifo(self):
        product_line = device_spl()
        problem = UninitializedVariablesAnalysis(product_line.icfg)
        fifo = IFDSSolver(problem, worklist_order="fifo").solve()
        rpo = IFDSSolver(problem, worklist_order="rpo").solve()
        for stmt in product_line.icfg.reachable_instructions():
            assert fifo.at(stmt) == rpo.at(stmt)

    def test_rpo_stats_recorded(self):
        problem = ifds_as_ide(TaintAnalysis(figure1().icfg))
        solver = IDESolver(problem, worklist_order="rpo")
        solver.solve()
        assert solver.stats["worklist_order"] == "rpo"


class TestLiftedDigestIdentity:
    @pytest.mark.parametrize("spl", [figure1, device_spl])
    @pytest.mark.parametrize(
        "analysis_cls", [ReachingDefinitionsAnalysis, UninitializedVariablesAnalysis]
    )
    def test_digest_identical_across_orders(self, spl, analysis_cls):
        product_line = spl()
        digests = set()
        for order in WORKLIST_ORDERS:
            results = SPLLift(
                analysis_cls(product_line.icfg),
                feature_model=product_line.feature_model,
            ).solve(worklist_order=order, order_seed=11)
            digests.add(results.result_digest())
        assert len(digests) == 1

    def test_solver_stats_surface_bdd_counters(self):
        product_line = figure1()
        results = SPLLift(
            ReachingDefinitionsAnalysis(product_line.icfg),
            feature_model=product_line.feature_model,
        ).solve(worklist_order="rpo")
        assert results.stats["worklist_order"] == "rpo"
        assert results.stats["bdd_nodes"] > 0
        assert "bdd_apply_calls" in results.stats
