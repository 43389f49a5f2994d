"""Worklist scheduling: the queues, and results under every order.

The IFDS and IDE fixed points are iteration-order independent, so every
scheduling policy must produce the same facts and bit-identical
:meth:`result_digest` output — an order only changes *how fast* the
solver gets there.  These tests pin that invariant for every entry of
``WORKLIST_ORDERS`` and exercise the queues :func:`make_worklist` builds.
"""

import pytest

from repro.analyses import (
    PossibleTypesAnalysis,
    ReachingDefinitionsAnalysis,
    TaintAnalysis,
    UninitializedVariablesAnalysis,
)
from repro.baselines.a2 import A2Problem, solve_a2
from repro.core import SPLLift
from repro.ide import IDESolver
from repro.ide.binary import ifds_as_ide
from repro.ide.summaries import summary_cache_for
from repro.ifds import IFDSSolver
from repro.ifds import solver as ifds_solver
from repro.ifds.worklist import (
    IDE_DEFAULT_ORDER,
    IFDS_DEFAULT_ORDER,
    WORKLIST_ORDERS,
    BucketQueue,
    RPORanker,
    make_worklist,
    resolve_worklist_order,
)
from repro.service import ResultStore
from repro.spl import device_spl, figure1, gpl_mini
from repro.spl.edits import edited_product_line


def _entry(rank, tag):
    """A ``(d1, n, d2)`` entry whose statement is its own rank."""
    return ("d1", rank, tag)


def _bucket_queue():
    return BucketQueue(lambda stmt: stmt)


class TestBucketQueue:
    def test_pops_lowest_rank_first(self):
        queue = _bucket_queue()
        queue.push(_entry(3, "c"))
        queue.push(_entry(1, "a"))
        queue.push(_entry(2, "b"))
        assert queue.pop() == _entry(1, "a")
        assert queue.pop() == _entry(2, "b")
        assert queue.pop() == _entry(3, "c")

    def test_len_tracks_pushes_and_pops(self):
        queue = _bucket_queue()
        assert len(queue) == 0
        queue.push(_entry(0, "a"))
        queue.push(_entry(5, "b"))
        assert len(queue) == 2
        queue.pop()
        assert len(queue) == 1
        queue.pop()
        assert len(queue) == 0

    def test_cursor_rewinds_on_lower_rank_push(self):
        queue = _bucket_queue()
        queue.push(_entry(4, "late"))
        assert queue.pop() == _entry(4, "late")
        # The cursor sits at rank 4 now; a lower-rank push must rewind it.
        queue.push(_entry(4, "late2"))
        queue.push(_entry(1, "early"))
        assert queue.pop() == _entry(1, "early")
        assert queue.pop() == _entry(4, "late2")

    def test_grows_to_arbitrary_ranks(self):
        queue = _bucket_queue()
        queue.push(_entry(100, "far"))
        queue.push(_entry(0, "near"))
        assert queue.pop() == _entry(0, "near")
        assert queue.pop() == _entry(100, "far")

    def test_drains_same_rank_completely(self):
        queue = _bucket_queue()
        for tag in ("a", "b", "c"):
            queue.push(_entry(2, tag))
        drained = {queue.pop(), queue.pop(), queue.pop()}
        assert drained == {_entry(2, "a"), _entry(2, "b"), _entry(2, "c")}
        assert len(queue) == 0

    def test_ranks_the_entry_statement(self):
        ranks = {"late": 7, "early": 1}
        queue = BucketQueue(ranks.__getitem__)
        queue.push(("x", "late", "y"))
        queue.push(("x", "early", "y"))
        assert queue.pop() == ("x", "early", "y")


class TestResolveOrder:
    def test_orders_constant(self):
        assert WORKLIST_ORDERS == ("fifo", "lifo", "random", "rpo")

    def test_explicit_argument_wins(self, monkeypatch):
        # Only the argument selects an order; the variable that once did
        # is ignored.
        monkeypatch.setenv("SPLLIFT_WORKLIST_ORDER", "lifo")
        assert resolve_worklist_order("fifo", IDE_DEFAULT_ORDER) == "fifo"
        assert resolve_worklist_order("rpo", IFDS_DEFAULT_ORDER) == "rpo"

    def test_none_is_the_solver_default(self):
        # IDE phase I re-joins, so its order sets its work: rpo.  IFDS
        # does the same work under every order: the cheapest queue, fifo.
        assert IDE_DEFAULT_ORDER == "rpo"
        assert IFDS_DEFAULT_ORDER == "fifo"
        assert resolve_worklist_order(None, IDE_DEFAULT_ORDER) == "rpo"
        assert resolve_worklist_order(None, IFDS_DEFAULT_ORDER) == "fifo"

    def test_unknown_order_raises(self):
        with pytest.raises(ValueError, match="bogus"):
            resolve_worklist_order("bogus", IDE_DEFAULT_ORDER)
        with pytest.raises(ValueError, match="bogus"):
            make_worklist("bogus", figure1().icfg)


class TestDefaultOrders:
    def test_spllift_solves_rpo(self):
        product_line = gpl_mini()
        results = SPLLift(
            ReachingDefinitionsAnalysis(product_line.icfg),
            feature_model=product_line.feature_model,
        ).solve()
        assert results.stats["worklist_order"] == "rpo"

    def test_ifds_and_a2_solve_fifo(self, monkeypatch):
        orders = []
        real = ifds_solver.make_worklist

        def spy(worklist_order, icfg, seed=0):
            orders.append(worklist_order)
            return real(worklist_order, icfg, seed)

        monkeypatch.setattr(ifds_solver, "make_worklist", spy)
        product_line = gpl_mini()
        IFDSSolver(ReachingDefinitionsAnalysis(product_line.icfg)).solve()
        solve_a2(
            ReachingDefinitionsAnalysis(product_line.icfg),
            frozenset(product_line.features_reachable),
        )
        assert orders == ["fifo", "fifo"]


class TestMakeWorklist:
    ENTRIES = [_entry(rank, tag) for rank, tag in ((2, "a"), (0, "b"), (1, "c"))]

    def _drain(self, order, seed=0):
        queue, push, pop = make_worklist(order, figure1().icfg, seed)
        for entry in self.ENTRIES:
            push(entry)
        assert len(queue) == len(self.ENTRIES)
        popped = []
        while queue:
            popped.append(pop())
        return popped

    def test_fifo_pops_in_push_order(self):
        assert self._drain("fifo") == self.ENTRIES

    def test_unnamed_order_raises(self):
        # The solvers resolve None to their own default first.
        with pytest.raises(ValueError, match="None"):
            make_worklist(None, figure1().icfg)

    def test_lifo_pops_newest_first(self):
        assert self._drain("lifo") == self.ENTRIES[::-1]

    def test_random_is_a_seeded_permutation(self):
        popped = self._drain("random", seed=3)
        assert sorted(popped) == sorted(self.ENTRIES)
        assert self._drain("random", seed=3) == popped

    def test_rpo_pops_in_reverse_post_order(self):
        icfg = figure1().icfg
        ranker = RPORanker(icfg)
        method = next(iter(icfg.entry_points))
        body = list(method.instructions)
        queue, push, pop = make_worklist("rpo", icfg)
        for stmt in reversed(body):
            push(("d1", stmt, "d2"))
        popped = [pop()[1] for _ in body]
        assert not queue
        assert popped == sorted(body, key=ranker.rank_of)
        assert popped[0] is icfg.start_point_of(method)


# One IFDS client per subject, run unlifted (every statement enabled) and
# as the A2 full-configuration product.
IFDS_CASES = [
    (figure1, TaintAnalysis),
    (device_spl, UninitializedVariablesAnalysis),
    (gpl_mini, ReachingDefinitionsAnalysis),
    (gpl_mini, PossibleTypesAnalysis),
]
IFDS_IDS = [f"{spl.__name__}-{cls.__name__}" for spl, cls in IFDS_CASES]


def _facts(results, icfg):
    return {stmt: results.at(stmt) for stmt in icfg.reachable_instructions()}


class TestIfdsEveryOrder:
    @pytest.mark.parametrize("order", WORKLIST_ORDERS)
    @pytest.mark.parametrize("spl, analysis_cls", IFDS_CASES, ids=IFDS_IDS)
    def test_same_facts_under_every_order(self, spl, analysis_cls, order):
        product_line = spl()
        problem = analysis_cls(product_line.icfg)
        fifo = IFDSSolver(problem, worklist_order="fifo")
        other = IFDSSolver(problem, worklist_order=order, order_seed=3)
        icfg = product_line.icfg
        assert _facts(other.solve(), icfg) == _facts(fifo.solve(), icfg)
        # Path edges, memo misses and summaries are sets of the fixed
        # point, so IFDS counts its work the same way under every order.
        assert other.stats == fifo.stats

    @pytest.mark.parametrize("order", WORKLIST_ORDERS)
    @pytest.mark.parametrize("spl, analysis_cls", IFDS_CASES, ids=IFDS_IDS)
    def test_a2_full_configuration_under_every_order(
        self, spl, analysis_cls, order
    ):
        product_line = spl()
        full = frozenset(product_line.features_reachable)

        def solve(worklist_order):
            problem = A2Problem(analysis_cls(product_line.icfg), full)
            solver = IFDSSolver(problem, worklist_order=worklist_order, order_seed=3)
            results = solver.solve()
            return _facts(results, problem.icfg), solver.stats

        assert solve(order) == solve("fifo")


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


class TestRandomOrderRepeats:
    """One seed, one pop sequence: ``random`` repeats its work."""

    def test_ide_stats_repeat(self):
        def stats():
            product_line = gpl_mini()
            return SPLLift(
                ReachingDefinitionsAnalysis(product_line.icfg),
                feature_model=product_line.feature_model,
            ).solve(worklist_order="random", order_seed=3).stats

        first = stats()
        assert first["worklist_order"] == "random"
        assert stats() == first

    def test_ifds_stats_repeat(self):
        def stats():
            problem = ReachingDefinitionsAnalysis(gpl_mini().icfg)
            solver = IFDSSolver(problem, worklist_order="random", order_seed=3)
            solver.solve()
            return solver.stats

        assert stats() == stats()


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

    @pytest.mark.parametrize("order", WORKLIST_ORDERS)
    def test_warm_incremental_matches_cold_under_every_order(
        self, tmp_path, order
    ):
        """Stored summaries are fixed-point facts: a store populated
        under fifo serves a warm re-solve under any order, and the warm
        result is bit-identical to a cold solve under that order."""

        def solve(product_line, worklist_order, store=None):
            spllift = SPLLift(
                ReachingDefinitionsAnalysis(product_line.icfg),
                feature_model=product_line.feature_model,
            )
            summaries = summary_cache_for(spllift, store) if store else None
            return spllift.solve(
                worklist_order=worklist_order, order_seed=3, summaries=summaries
            )

        store = ResultStore(tmp_path / "summaries")
        solve(gpl_mini(), "fifo", store)  # populate from the pristine subject
        cold = solve(edited_product_line(gpl_mini())[0], order)
        warm = solve(edited_product_line(gpl_mini())[0], order, store)
        assert warm.result_digest() == cold.result_digest()
        assert warm.stats["summaries_reused"] > 0
        assert cold.result_digest() == (
            solve(edited_product_line(gpl_mini())[0], "fifo").result_digest()
        )
