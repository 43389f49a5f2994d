"""End-to-end tests for incremental re-analysis (summary reuse).

The contract under test is the hard one from the design: a warm solve
through a summary store is **bit-identical** to a cold solve of the same
source — with no edit, after a one-method edit, for every paper
analysis, and in the presence of corrupted store records (which must
degrade to recomputation, never to wrong results).
"""

import pytest

from repro.analyses import PAPER_ANALYSES, TypestateAnalysis
from repro.constraints.dnf import DnfConstraintSystem
from repro.core import SPLLift
from repro.ide.summaries import SUMMARY_SCHEMA, summary_cache_for
from repro.obs import runtime as obs
from repro.service import ResultStore
from repro.spl import gpl_mini
from repro.spl.edits import EDIT_LOCAL, edited_product_line

ANALYSIS_CLASSES = [cls for _, cls in PAPER_ANALYSES]


def _solve(product_line, analysis_cls, store=None):
    spllift = SPLLift(
        analysis_cls(product_line.icfg),
        feature_model=product_line.feature_model,
    )
    summaries = (
        summary_cache_for(spllift, store) if store is not None else None
    )
    return spllift.solve(summaries=summaries)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "summaries")


class TestNoEditWarm:
    @pytest.mark.parametrize("analysis_cls", ANALYSIS_CLASSES)
    def test_full_reuse_and_bit_identity(self, store, analysis_cls):
        cold = _solve(gpl_mini(), analysis_cls)
        populate = _solve(gpl_mini(), analysis_cls, store)
        assert populate.result_digest() == cold.result_digest()

        warm = _solve(gpl_mini(), analysis_cls, store)
        assert warm.result_digest() == cold.result_digest()
        assert warm.stats["summaries_invalidated"] == 0
        assert warm.stats["summaries_recomputed"] == 0
        assert warm.stats["summaries_reused"] > 0


class TestEditedWarm:
    @pytest.mark.parametrize("analysis_cls", ANALYSIS_CLASSES)
    def test_bit_identity_after_one_method_edit(self, store, analysis_cls):
        _solve(gpl_mini(), analysis_cls, store)  # populate from pristine

        edited, target, dirty = edited_product_line(gpl_mini())
        assert EDIT_LOCAL in edited.source
        cold = _solve(edited, analysis_cls)

        fresh_edit, _, _ = edited_product_line(gpl_mini())
        warm = _solve(fresh_edit, analysis_cls, store)
        assert warm.result_digest() == cold.result_digest()
        assert warm.stats["summaries_reused"] > 0
        # Exactly the dirty closure (the edited method plus transitive
        # callers) misses; every clean method's record is usable.
        assert warm.stats["summaries_invalidated"] == dirty

    def test_reuse_ratio_on_single_edit(self, store):
        analysis_cls = ANALYSIS_CLASSES[0]
        _solve(gpl_mini(), analysis_cls, store)
        fresh_edit, _, _ = edited_product_line(gpl_mini())
        warm = _solve(fresh_edit, analysis_cls, store)
        reused = warm.stats["summaries_reused"]
        recomputed = warm.stats["summaries_recomputed"]
        assert reused / max(1, reused + recomputed) >= 0.8

    def test_second_warm_solve_fully_reuses(self, store):
        """The warm solve harvests the recomputed methods back, so a
        second identical re-solve is a 0-edit solve: nothing misses."""
        analysis_cls = ANALYSIS_CLASSES[0]
        _solve(gpl_mini(), analysis_cls, store)
        fresh_edit, _, _ = edited_product_line(gpl_mini())
        first = _solve(fresh_edit, analysis_cls, store)
        assert first.stats["summaries_invalidated"] > 0

        again, _, _ = edited_product_line(gpl_mini())
        second = _solve(again, analysis_cls, store)
        assert second.stats["summaries_invalidated"] == 0
        assert second.stats["summaries_recomputed"] == 0
        assert second.result_digest() == first.result_digest()


class TestIsolationAndFailOpen:
    def test_records_do_not_cross_analyses(self, store):
        """Summaries are keyed by problem identity: a store populated by
        one analysis serves nothing to another — and must not corrupt
        its results."""
        pt_cls, rd_cls = ANALYSIS_CLASSES[0], ANALYSIS_CLASSES[1]
        _solve(gpl_mini(), pt_cls, store)
        cold = _solve(gpl_mini(), rd_cls)
        warm = _solve(gpl_mini(), rd_cls, store)
        assert warm.result_digest() == cold.result_digest()
        assert warm.stats["summaries_reused"] == 0

    def test_corrupted_record_degrades_to_recompute(self, store):
        analysis_cls = ANALYSIS_CLASSES[0]
        cold = _solve(gpl_mini(), analysis_cls, store)
        # Vandalize one stored record in place: swap its fact table for
        # garbage refs while keeping the key (digest) intact.
        victim = next(
            record
            for record in store.iter_records()
            if record.get("schema") == SUMMARY_SCHEMA
        )
        victim["facts"] = []
        store.put(victim)

        warm = _solve(gpl_mini(), analysis_cls, store)
        assert warm.result_digest() == cold.result_digest()
        assert warm.stats["summaries_invalidated"] >= 1
        assert warm.stats["summaries_reused"] > 0

    def test_record_of_another_schema_is_a_store_miss(self, store):
        """A summary record of another schema is never decoded, so the
        store counts it as a miss, not a hit."""
        analysis_cls = ANALYSIS_CLASSES[0]
        cold = _solve(gpl_mini(), analysis_cls, store)
        stored = [
            record
            for record in store.iter_records()
            if record.get("schema") == SUMMARY_SCHEMA
        ]
        for record in stored:
            store.put({**record, "schema": "spllift-summary/v0"})
        obs.reset()
        warm = _solve(gpl_mini(), analysis_cls, store)
        assert warm.result_digest() == cold.result_digest()
        metrics = obs.metrics()
        assert metrics.counter_value("store.get_hits") == 0
        assert metrics.counter_value("store.get_misses") == len(stored)
        assert warm.stats["summaries_invalidated"] == len(stored)
        assert store.stats()["session"]["hit_ratio"] == 0.0

    def test_typestate_protocol_keys_and_round_trips(self, store):
        """Typestate facts (protocol-parameterized) survive the summary
        codec, and records are keyed per protocol."""
        product_line = gpl_mini()

        def solve_typestate(pl, with_store):
            spllift = SPLLift(
                TypestateAnalysis(pl.icfg),
                feature_model=pl.feature_model,
            )
            summaries = (
                summary_cache_for(spllift, store) if with_store else None
            )
            return spllift.solve(summaries=summaries)

        cold = solve_typestate(product_line, with_store=False)
        solve_typestate(gpl_mini(), with_store=True)
        warm = solve_typestate(gpl_mini(), with_store=True)
        assert warm.result_digest() == cold.result_digest()
        assert warm.stats["summaries_invalidated"] == 0

    def test_non_bdd_problem_detaches(self, store):
        """A DNF-backed lifted problem has no canonical node codec; the
        cache must detach and leave the solve untouched."""
        product_line = gpl_mini()
        analysis_cls = ANALYSIS_CLASSES[0]

        def solve_dnf(with_store):
            pl = gpl_mini()
            spllift = SPLLift(
                analysis_cls(pl.icfg),
                system=DnfConstraintSystem(),
                feature_model=None,
            )
            summaries = (
                summary_cache_for(spllift, store) if with_store else None
            )
            return spllift.solve(summaries=summaries)

        cold = solve_dnf(with_store=False)
        armed = solve_dnf(with_store=True)
        assert armed.result_digest() == cold.result_digest()
        assert armed.stats["summaries_reused"] == 0
        assert armed.stats["summaries_recomputed"] == 0
        assert list(store.iter_records()) == []  # nothing harvested
