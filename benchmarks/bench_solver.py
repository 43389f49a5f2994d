"""Machine-readable solver benchmark harness.

Times the IDE/SPLLIFT hot path over the four paper-shaped subjects and the
solver micro-benchmarks, then writes a JSON report to ``BENCH_solver.json``
so successive PRs have a perf trajectory to compare against.  Run it as::

    PYTHONPATH=src python benchmarks/bench_solver.py [-o BENCH_solver.json]
                                                     [--rounds 3] [--quick]

Per benchmark the report records minimum and mean wall time over ``rounds``
runs, the solver's work counters (jump functions, flow applications, edge
compositions, value updates) and — for lifted runs — the edge-algebra
cache counters (compose/join hits and misses, interned edge count) with
derived hit rates.  Unlike the pytest-benchmark suites this output is
stable, diffable and cheap enough for CI smoke runs.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.analyses import (
    PossibleTypesAnalysis,
    ReachingDefinitionsAnalysis,
    TaintAnalysis,
    UninitializedVariablesAnalysis,
)
from repro.core import SPLLift
from repro.ide.binary import solve_ifds_via_ide
from repro.ifds import IFDSSolver
from repro.ir import ICFG, lower_program
from repro.minijava import derive_product
from repro.spl.benchmarks import (
    berkeleydb_like,
    gpl_like,
    lampiro_like,
    mm08_like,
)
from repro.utils.timing import best_of

SUBJECT_BUILDERS = (
    ("BerkeleyDB-like", berkeleydb_like),
    ("GPL-like", gpl_like),
    ("Lampiro-like", lampiro_like),
    ("MM08-like", mm08_like),
)
ANALYSES = (
    ("possible_types", PossibleTypesAnalysis),
    ("reaching_definitions", ReachingDefinitionsAnalysis),
    ("uninitialized_variables", UninitializedVariablesAnalysis),
)

_CACHE_KEYS = (
    "compose_cache_hits",
    "compose_cache_misses",
    "join_cache_hits",
    "join_cache_misses",
    "interned_edges",
)


def _hit_rate(hits: int, misses: int) -> Optional[float]:
    total = hits + misses
    if total == 0:
        return None
    return round(hits / total, 4)


def _cache_summary(stats: Dict[str, int]) -> Dict[str, object]:
    summary: Dict[str, object] = {
        key: stats[key] for key in _CACHE_KEYS if key in stats
    }
    if "compose_cache_hits" in stats:
        summary["compose_hit_rate"] = _hit_rate(
            stats["compose_cache_hits"], stats["compose_cache_misses"]
        )
    if "join_cache_hits" in stats:
        summary["join_hit_rate"] = _hit_rate(
            stats["join_cache_hits"], stats["join_cache_misses"]
        )
    return summary


def _record(
    name: str, fn: Callable[[], Dict[str, int]], rounds: int
) -> Dict[str, object]:
    """Time ``fn`` (which returns solver stats) and package one report row."""
    measured = best_of(fn, rounds=rounds)
    stats: Dict[str, int] = measured["result"]  # type: ignore[assignment]
    row: Dict[str, object] = {
        "benchmark": name,
        "min_seconds": round(measured["min_seconds"], 6),
        "mean_seconds": round(measured["mean_seconds"], 6),
        "rounds": measured["rounds"],
        "stats": dict(stats),
    }
    cache = _cache_summary(stats)
    if cache:
        row["cache"] = cache
    print(
        f"  {name:<55s} {row['min_seconds']*1000.0:10.2f} ms (min of {rounds})",
        flush=True,
    )
    return row


def _git_revision(repo_root: Path) -> Optional[str]:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=repo_root,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            or None
        )
    except (OSError, subprocess.CalledProcessError):
        return None


def run_benchmarks(
    rounds: int,
    quick: bool,
    parallel: int = 4,
    max_overhead_pct: float = 2.0,
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []

    print("building subjects ...", flush=True)
    subjects = {}
    for name, builder in SUBJECT_BUILDERS:
        product_line = builder()
        product_line.icfg  # force parse/lower/ICFG outside the timed region
        subjects[name] = product_line

    # --- SPLLIFT single passes (the Table 2 hot path) -----------------
    print("spllift single passes:", flush=True)
    subject_names = ("GPL-like",) if quick else tuple(subjects)
    analyses = ANALYSES[:1] if quick else ANALYSES
    for subject_name in subject_names:
        product_line = subjects[subject_name]
        for analysis_name, analysis_class in analyses:

            def run(pl=product_line, cls=analysis_class) -> Dict[str, int]:
                results = SPLLift(
                    cls(pl.icfg), feature_model=pl.feature_model
                ).solve()
                return results.stats

            rows.append(
                _record(
                    f"spllift/{subject_name}/{analysis_name}", run, rounds
                )
            )

    # --- A/B rows: worklist scheduling and BDD reordering -------------
    # Same subjects, reaching-definitions only (the densest lifted pass):
    # once with the RPO priority worklist, once with sifting-based dynamic
    # variable reordering.  Compare against the plain
    # ``spllift/<subject>/reaching_definitions`` rows above.
    print("spllift A/B (rpo worklist, sift reordering):", flush=True)
    ab_subjects = ("GPL-like",) if quick else tuple(subjects)
    for subject_name in ab_subjects:
        product_line = subjects[subject_name]

        def run_rpo(pl=product_line) -> Dict[str, int]:
            results = SPLLift(
                ReachingDefinitionsAnalysis(pl.icfg),
                feature_model=pl.feature_model,
            ).solve(worklist_order="rpo")
            return results.stats

        def run_sift(pl=product_line) -> Dict[str, int]:
            results = SPLLift(
                ReachingDefinitionsAnalysis(pl.icfg),
                feature_model=pl.feature_model,
                reorder="sift",
            ).solve()
            return results.stats

        rows.append(
            _record(
                f"spllift/{subject_name}/reaching_definitions/rpo",
                run_rpo,
                rounds,
            )
        )
        rows.append(
            _record(
                f"spllift/{subject_name}/reaching_definitions/sift",
                run_sift,
                rounds,
            )
        )

    # --- A/B rows: evaluation engine (tabulation vs lifted Datalog) ---
    # Same subject/analysis pairs as the ``spllift/...`` single passes
    # above, solved with ``engine="datalog"`` — the semi-naive rule
    # evaluator.  Results are bit-identical (gated by
    # scripts/check_digest_identity.py --engine datalog); these rows are
    # the wall-time and work-counter A/B.
    print("spllift A/B (datalog engine):", flush=True)
    engine_subjects = ("GPL-like",) if quick else tuple(subjects)
    engine_analyses = ANALYSES[:1] if quick else ANALYSES
    for subject_name in engine_subjects:
        product_line = subjects[subject_name]
        for analysis_name, analysis_class in engine_analyses:

            def run_datalog(pl=product_line, cls=analysis_class) -> Dict[str, int]:
                results = SPLLift(
                    cls(pl.icfg), feature_model=pl.feature_model
                ).solve(engine="datalog")
                return results.stats

            rows.append(
                _record(
                    f"engine/datalog/{subject_name}/{analysis_name}",
                    run_datalog,
                    rounds,
                )
            )

    # --- campaign (sequential vs -j) -----------------------------------
    # The Table 2 campaign fanned over worker processes.  The campaign
    # cutoff is set high enough that no cell is truncated, so sequential
    # and parallel rows measure *identical* work — per-configuration wall
    # times inflate under contention and would otherwise trip the cutoff
    # earlier in the parallel run, flattering the comparison.
    print(f"campaign (sequential vs -j {parallel}):", flush=True)
    from repro.experiments.table2 import run_table2

    campaign_subjects = ("GPL-like",) if quick else ("GPL-like", "MM08-like")
    campaign_builders = [
        (name, builder)
        for name, builder in SUBJECT_BUILDERS
        if name in campaign_subjects
    ]
    campaign_analyses = (
        [("Uninitialized Variables", UninitializedVariablesAnalysis)]
        if quick
        else [(name.replace("_", " ").title(), cls) for name, cls in ANALYSES]
    )
    campaign_cutoff = 10.0 if quick else 120.0

    def run_campaign(parallel_workers: Optional[int]) -> Dict[str, int]:
        table_rows = run_table2(
            campaign_builders,
            campaign_analyses,
            cutoff_seconds=campaign_cutoff,
            parallel=parallel_workers,
        )
        cells = [cell for row in table_rows for cell in row.cells]
        return {
            "cells": len(cells),
            "configurations_run": sum(
                cell.a2.configurations_run for cell in cells
            ),
        }

    rows.append(
        _record(
            f"campaign/table2/{len(campaign_builders)}_subjects/sequential",
            lambda: run_campaign(1),
            rounds,
        )
    )
    rows.append(
        _record(
            f"campaign/table2/{len(campaign_builders)}_subjects/parallel_j{parallel}",
            lambda: run_campaign(parallel),
            rounds,
        )
    )

    # --- observability A/B: tracer disabled vs enabled ----------------
    # ``off`` runs the exact code path every row above used (the
    # NullTracer no-op guard); ``on`` installs a real tracer and pays
    # for span bookkeeping.  The off row must stay within
    # ``max_overhead_pct`` of the plain single-pass row measured above:
    # disabled telemetry is required to be free (ISSUE 5 gate).
    print("observability overhead A/B (tracer off vs on):", flush=True)
    from repro.obs import runtime as obs_runtime

    obs_analysis_name, obs_analysis_class = (
        ANALYSES[0] if quick else ANALYSES[1]
    )
    obs_subject = "GPL-like"
    obs_product_line = subjects[obs_subject]

    def run_obs(
        pl=obs_product_line, cls=obs_analysis_class
    ) -> Dict[str, int]:
        results = SPLLift(
            cls(pl.icfg), feature_model=pl.feature_model
        ).solve()
        return results.stats

    # A fresh plain row measured back-to-back with the off row: the
    # process has aged since the single-pass section (warm BDD tables,
    # allocator state), so gating against that early row measures drift,
    # not overhead.
    plain_row = _record(
        f"obs_overhead/{obs_subject}/{obs_analysis_name}/plain",
        run_obs,
        rounds,
    )
    rows.append(plain_row)

    off_row = _record(
        f"obs_overhead/{obs_subject}/{obs_analysis_name}/off", run_obs, rounds
    )
    rows.append(off_row)

    obs_runtime.reset()
    obs_runtime.enable_tracing()
    try:
        on_row = _record(
            f"obs_overhead/{obs_subject}/{obs_analysis_name}/on",
            run_obs,
            rounds,
        )
        on_row["trace_events"] = len(obs_runtime.tracer().events())
    finally:
        obs_runtime.disable_tracing()
        obs_runtime.reset()
    rows.append(on_row)

    base_seconds = float(plain_row["min_seconds"])
    off_seconds = float(off_row["min_seconds"])
    on_seconds = float(on_row["min_seconds"])
    overhead_pct = (
        100.0 * (off_seconds - base_seconds) / base_seconds
        if base_seconds
        else 0.0
    )
    off_row["overhead_pct_vs_plain"] = round(overhead_pct, 2)
    if off_seconds:
        on_row["overhead_pct_vs_off"] = round(
            100.0 * (on_seconds - off_seconds) / off_seconds, 2
        )
    # Absolute slack absorbs scheduler noise on sub-10ms rows, where a
    # single context switch dwarfs any percentage threshold.
    slack_seconds = 0.005
    if (
        off_seconds - base_seconds > slack_seconds
        and overhead_pct > max_overhead_pct
    ):
        raise SystemExit(
            f"obs_overhead: disabled-telemetry run is {overhead_pct:.1f}% "
            f"slower than the plain pass ({off_seconds:.6f}s vs "
            f"{base_seconds:.6f}s); limit is {max_overhead_pct:.1f}%"
        )
    print(
        f"  disabled-telemetry overhead vs plain pass: {overhead_pct:+.2f}% "
        f"(limit {max_overhead_pct:.1f}%)",
        flush=True,
    )

    # --- flight recorder A/B: ring disarmed vs armed ------------------
    # The flight ring is *always on* by default (it is what makes a
    # worker crash explainable), so its cost is held to a hard <2%:
    # ``flight_off`` disarms the ring entirely, ``flight_on`` is the
    # default path every row above already ran.
    print("flight recorder overhead A/B (ring off vs on):", flush=True)
    max_flight_overhead_pct = 2.0
    obs_runtime.reset()
    obs_runtime.disable_flight()
    try:
        flight_off_row = _record(
            f"obs_overhead/{obs_subject}/{obs_analysis_name}/flight_off",
            run_obs,
            rounds,
        )
    finally:
        obs_runtime.reset()
    rows.append(flight_off_row)

    flight_on_row = _record(
        f"obs_overhead/{obs_subject}/{obs_analysis_name}/flight_on",
        run_obs,
        rounds,
    )
    flight_on_row["flight_events"] = len(obs_runtime.flight().events())
    obs_runtime.reset()
    rows.append(flight_on_row)

    flight_off_seconds = float(flight_off_row["min_seconds"])
    flight_on_seconds = float(flight_on_row["min_seconds"])
    flight_overhead_pct = (
        100.0 * (flight_on_seconds - flight_off_seconds) / flight_off_seconds
        if flight_off_seconds
        else 0.0
    )
    flight_on_row["overhead_pct_vs_flight_off"] = round(
        flight_overhead_pct, 2
    )
    if (
        flight_on_seconds - flight_off_seconds > slack_seconds
        and flight_overhead_pct > max_flight_overhead_pct
    ):
        raise SystemExit(
            f"obs_overhead: armed flight ring is "
            f"{flight_overhead_pct:.1f}% slower than disarmed "
            f"({flight_on_seconds:.6f}s vs {flight_off_seconds:.6f}s); "
            f"limit is {max_flight_overhead_pct:.1f}%"
        )
    print(
        f"  armed-ring overhead vs disarmed: {flight_overhead_pct:+.2f}% "
        f"(limit {max_flight_overhead_pct:.1f}%)",
        flush=True,
    )

    # --- analysis service: batch cold vs warm (the result-store path) --
    print("analysis service batch:", flush=True)
    import shutil
    import tempfile

    from repro.service import ResultStore, paper_campaign_jobs, run_batch

    if quick:
        jobs = paper_campaign_jobs(
            subjects=("GPL-like",), analyses=("possible_types",)
        )
    else:
        jobs = paper_campaign_jobs()
    store_root = Path(tempfile.mkdtemp(prefix="spllift-bench-store-"))
    store = ResultStore(store_root)
    try:
        # Cold: clear the store first so every round actually solves.
        # In-process execution (use_pool=False) keeps the timing about the
        # solver + store, not process spawn overhead.
        def run_batch_cold() -> Dict[str, int]:
            store.clear()
            report = run_batch(jobs, store=store, use_pool=False)
            return {"computed": report.computed, "cached": report.cached}

        rows.append(
            _record(f"service/batch_cold/{len(jobs)}_jobs", run_batch_cold, rounds)
        )

        def run_batch_warm() -> Dict[str, int]:
            report = run_batch(jobs, store=store, use_pool=False)
            return {"computed": report.computed, "cached": report.cached}

        rows.append(
            _record(f"service/batch_warm/{len(jobs)}_jobs", run_batch_warm, rounds)
        )
    finally:
        shutil.rmtree(store_root, ignore_errors=True)

    # --- analysis service: fleet of schedulers over a shared backend --
    # Two independent scheduler/client instances against one sqlite file
    # and one served HTTP store: the first cold-populates, the second
    # must be served 100% from the shared store.
    print("analysis service fleet (shared backends):", flush=True)
    import threading

    from repro.service import make_server, open_store

    fleet_root = Path(tempfile.mkdtemp(prefix="spllift-bench-fleet-"))
    server = None
    server_thread = None
    try:
        db_path = fleet_root / "fleet.db"
        served = open_store(f"sqlite://{fleet_root / 'served.db'}")
        server = make_server(served, port=0)
        host, port = server.server_address
        server_thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        server_thread.start()

        fleet_backends = (
            ("sqlite", lambda: open_store(f"sqlite://{db_path}")),
            ("http", lambda: open_store(f"http://{host}:{port}")),
        )
        for backend_name, open_client in fleet_backends:
            client_a, client_b = open_client(), open_client()

            def run_fleet_cold(client=client_a) -> Dict[str, int]:
                client.clear()
                report = run_batch(jobs, store=client, use_pool=False)
                return {"computed": report.computed, "cached": report.cached}

            cold_row = _record(
                f"service/fleet_cold/{backend_name}/{len(jobs)}_jobs",
                run_fleet_cold,
                rounds,
            )
            rows.append(cold_row)

            def run_fleet_warm(client=client_b) -> Dict[str, int]:
                report = run_batch(jobs, store=client, use_pool=False)
                if report.cached != len(jobs):
                    raise SystemExit(
                        f"fleet_warm/{backend_name}: second scheduler hit "
                        f"{report.cached}/{len(jobs)} records"
                    )
                return {"computed": report.computed, "cached": report.cached}

            warm_row = _record(
                f"service/fleet_warm/{backend_name}/{len(jobs)}_jobs",
                run_fleet_warm,
                rounds,
            )
            cold_seconds = float(cold_row["min_seconds"])
            warm_seconds = float(warm_row["min_seconds"])
            if warm_seconds:
                warm_row["speedup_vs_cold"] = round(
                    cold_seconds / warm_seconds, 2
                )
            rows.append(warm_row)
    finally:
        if server is not None:
            server.shutdown()
        if server_thread is not None:
            server_thread.join(timeout=5)
        shutil.rmtree(fleet_root, ignore_errors=True)

    # --- incremental re-solve: one method edited out of N --------------
    # Per subject: a sqlite summary store is populated from the pristine
    # source, one method is edited (smallest dirty closure — the 1-of-N
    # developer-edit scenario), and the edited subject is solved cold
    # (no store) vs warm (summaries injected).  Warm rounds each start
    # from a fresh copy of the populated store, because a warm solve
    # harvests the recomputed methods under their *edited* digests —
    # reusing those in round 2 would measure a 0-edit re-solve instead.
    # Digest identity between cold and warm is asserted, not assumed.
    print("incremental re-solve (1-method edit, cold vs warm):", flush=True)
    from repro.ide.summaries import summary_cache_for
    from repro.spl.edits import edited_product_line

    inc_subjects = (
        ("GPL-like",)
        if quick
        else ("BerkeleyDB-like", "GPL-like", "MM08-like")
    )
    inc_analysis_name, inc_analysis_class = (
        "reaching_definitions",
        ReachingDefinitionsAnalysis,
    )
    builders = dict(SUBJECT_BUILDERS)
    for subject_name in inc_subjects:
        builder = builders[subject_name]
        inc_root = Path(tempfile.mkdtemp(prefix="spllift-bench-inc-"))
        try:
            populated_db = inc_root / "summaries.db"
            pristine = builder()
            n_methods = len(pristine.icfg.call_graph.reachable_methods)
            populate = SPLLift(
                inc_analysis_class(pristine.icfg),
                feature_model=pristine.feature_model,
            )
            populate.solve(
                summaries=summary_cache_for(
                    populate, open_store(f"sqlite://{populated_db}")
                )
            )
            # The store runs in WAL mode; fold the log into the main file
            # so the per-round file copies below carry every record.
            import sqlite3

            with sqlite3.connect(populated_db) as conn:
                conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            _, target, dirty = edited_product_line(builder())
            prefix = f"incremental/edit_1_of_{n_methods}/{subject_name}"
            digests: Dict[str, str] = {}

            def run_inc_cold(b=builder, t=target) -> Dict[str, int]:
                pl, _, _ = edited_product_line(b(), t)
                results = SPLLift(
                    inc_analysis_class(pl.icfg),
                    feature_model=pl.feature_model,
                ).solve()
                digests["cold"] = results.result_digest()
                return results.stats

            cold_row = _record(f"{prefix}/cold", run_inc_cold, rounds)
            rows.append(cold_row)

            def run_inc_warm(b=builder, t=target) -> Dict[str, int]:
                warm_db = inc_root / "warm.db"
                # Remove the previous round's database *and* its WAL/SHM
                # sidecars: sqlite would otherwise replay the stale log
                # over the fresh copy, perturbing the per-round store.
                for stale in (
                    warm_db,
                    warm_db.with_name("warm.db-wal"),
                    warm_db.with_name("warm.db-shm"),
                ):
                    stale.unlink(missing_ok=True)
                shutil.copyfile(populated_db, warm_db)
                pl, _, _ = edited_product_line(b(), t)
                spllift = SPLLift(
                    inc_analysis_class(pl.icfg),
                    feature_model=pl.feature_model,
                )
                results = spllift.solve(
                    summaries=summary_cache_for(
                        spllift, open_store(f"sqlite://{warm_db}")
                    )
                )
                digests["warm"] = results.result_digest()
                return results.stats

            warm_row = _record(f"{prefix}/warm", run_inc_warm, rounds)
            if digests["warm"] != digests["cold"]:
                raise SystemExit(
                    f"{prefix}: warm digest differs from cold reference"
                )
            warm_stats = warm_row["stats"]  # type: ignore[assignment]
            reused = warm_stats.get("summaries_reused", 0)
            recomputed = warm_stats.get("summaries_recomputed", 0)
            warm_row["analysis"] = inc_analysis_name
            warm_row["edited_method"] = target
            warm_row["dirty_methods"] = dirty
            warm_row["reuse_ratio"] = round(
                reused / max(1, reused + recomputed), 4
            )
            warm_seconds = float(warm_row["min_seconds"])
            if warm_seconds:
                warm_row["speedup_vs_cold"] = round(
                    float(cold_row["min_seconds"]) / warm_seconds, 2
                )
            rows.append(warm_row)
        finally:
            shutil.rmtree(inc_root, ignore_errors=True)

    # --- solver micro-benchmarks (binary IDE embedding vs direct IFDS)
    print("solver micro-benchmarks:", flush=True)
    product = derive_product(
        subjects["GPL-like"].ast,
        frozenset(subjects["GPL-like"].features_reachable),
    )
    product_icfg = ICFG.for_entry(lower_program(product))

    def run_ifds_direct() -> Dict[str, int]:
        solver = IFDSSolver(TaintAnalysis(product_icfg))
        solver.solve()
        return solver.stats

    def run_ifds_via_ide() -> Dict[str, int]:
        results = solve_ifds_via_ide(TaintAnalysis(product_icfg))
        del results
        return {}

    rows.append(_record("micro/ifds_direct/taint", run_ifds_direct, rounds))
    rows.append(
        _record("micro/ifds_via_ide_binary/taint", run_ifds_via_ide, rounds)
    )

    # --- BDD kernel micro-benchmark: deep variable chains -------------
    # A 5,000-variable conjunction chain plus node/model counting — the
    # workload that overflowed the recursion limit before the iterative
    # apply kernel.
    from repro.bdd import BDDManager

    def run_deep_chain() -> Dict[str, int]:
        manager = BDDManager()
        chain = manager.and_all(
            manager.var(f"v{i:04d}") for i in range(5000)
        )
        stats = manager.cache_stats()
        return {
            "chain_nodes": manager.node_count(chain),
            "model_count": manager.satcount(chain),
            "bdd_nodes": stats["unique_entries"],
            "apply_calls": stats["apply_calls"],
        }

    rows.append(_record("micro/bdd_kernel/deep_chain_5000", run_deep_chain, rounds))

    # --- BDD kernel micro-benchmark: unique-table churn ----------------
    # A 48-variable threshold function ("at least 16 of 48") built by
    # dynamic programming: ~1,300 applies whose intermediates intern and
    # abandon tens of thousands of distinct nodes — the find-or-create
    # path and its packed-key probes dominate.
    def run_unique_churn() -> Dict[str, int]:
        manager = BDDManager()
        xs = [manager.var(f"u{i:02d}") for i in range(48)]
        threshold = 16
        # counts[j] = BDD for "at least j of the variables seen so far".
        counts = [manager.true] + [manager.false] * threshold
        for x in xs:
            for j in range(threshold, 0, -1):
                counts[j] = manager.or_(
                    counts[j], manager.and_(x, counts[j - 1])
                )
        stats = manager.cache_stats()
        return {
            "result_nodes": manager.node_count(counts[threshold]),
            "bdd_nodes": stats["unique_entries"],
            "total_nodes": stats["nodes"],
            "apply_calls": stats["apply_calls"],
            "apply_cache_misses": stats["apply_cache_misses"],
        }

    rows.append(_record("micro/bdd_kernel/unique_churn", run_unique_churn, rounds))

    # --- BDD kernel micro-benchmark: apply storm ------------------------
    # 1,500 pseudo-random cubes over 14 variables (multiplicative-hash
    # literal selection, no RNG state) OR-ed into one accumulator: a
    # cache-hit-heavy apply mix — the computed-table probe is the cost.
    def run_apply_storm() -> Dict[str, int]:
        manager = BDDManager()
        xs = [manager.var(f"s{i:02d}") for i in range(14)]
        acc = manager.false
        for k in range(1500):
            bits = (k * 0x9E3779B1) & 0x3FFF
            cube = manager.true
            for i in range(14):
                if bits >> i & 1:
                    literal = (
                        xs[i] if (bits >> ((i + 7) % 14)) & 1 else manager.not_(xs[i])
                    )
                    cube = manager.and_(cube, literal)
            acc = manager.or_(acc, cube)
        stats = manager.cache_stats()
        return {
            "result_nodes": manager.node_count(acc),
            "bdd_nodes": stats["unique_entries"],
            "apply_calls": stats["apply_calls"],
            "apply_cache_hits": stats["apply_cache_hits"],
            "apply_cache_misses": stats["apply_cache_misses"],
        }

    rows.append(_record("micro/bdd_kernel/apply_storm", run_apply_storm, rounds))

    # --- BDD kernel micro-benchmark: wide model counting ----------------
    # Repeated satcount over a ~4,000-node disjunction of pseudo-random
    # cubes over 20 variables; each round declares one more variable,
    # which (correctly) invalidates the count memo, so every round pays
    # the full `_satcount_raw` DAG walk.
    def run_satcount_wide() -> Dict[str, int]:
        manager = BDDManager()
        xs = [manager.var(f"w{i:02d}") for i in range(20)]
        acc = manager.false
        for k in range(500):
            bits = (k * 0x9E3779B1) & 0xFFFFF
            cube = manager.true
            for i in range(20):
                if bits >> i & 1:
                    literal = (
                        xs[i] if (bits >> ((i + 11) % 20)) & 1 else manager.not_(xs[i])
                    )
                    cube = manager.and_(cube, literal)
            acc = manager.or_(acc, cube)
        checksum = 0
        for round_index in range(50):
            manager.var(f"pad{round_index:02d}")
            checksum ^= manager.satcount(acc)
        stats = manager.cache_stats()
        return {
            "result_nodes": manager.node_count(acc),
            "bdd_nodes": stats["unique_entries"],
            "satcount_checksum_low": checksum & 0xFFFFFFFF,
            "apply_calls": stats["apply_calls"],
        }

    rows.append(_record("micro/bdd_kernel/satcount_wide", run_satcount_wide, rounds))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_solver.json",
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--rounds", type=int, default=5, help="timing rounds per benchmark"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one subject, one analysis — the CI smoke configuration",
    )
    parser.add_argument(
        "-j",
        "--parallel",
        type=int,
        default=4,
        help="worker count for the parallel campaign row (default 4)",
    )
    parser.add_argument(
        "--max-overhead-pct",
        type=float,
        default=2.0,
        help="fail if the disabled-telemetry obs_overhead row is more than "
        "this many percent slower than the plain pass (default 2.0)",
    )
    parser.add_argument(
        "--stats-out",
        type=Path,
        default=None,
        help="also write the rows' work counters as a spllift-metrics/v1 "
        "snapshot (row.stat -> value) for scripts/compare_metrics.py",
    )
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be >= 1, got {args.rounds}")
    if args.parallel < 2:
        parser.error(f"--parallel must be >= 2, got {args.parallel}")
    if not args.output.parent.is_dir():
        # Fail before the (long) benchmark run, not after it.
        parser.error(f"output directory does not exist: {args.output.parent}")

    repo_root = Path(__file__).resolve().parent.parent
    rows = run_benchmarks(
        rounds=args.rounds,
        quick=args.quick,
        parallel=args.parallel,
        max_overhead_pct=args.max_overhead_pct,
    )
    import os

    report = {
        "schema": "bench_solver/v1",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "git_revision": _git_revision(repo_root),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "rounds": args.rounds,
        "quick": args.quick,
        "parallel": args.parallel,
        "benchmarks": rows,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.stats_out is not None:
        # Work counters only (wall times live in the main report): the
        # format compare_metrics.py consumes, so CI can gate counter
        # drift — e.g. a BDD-node or apply-miss blowup — independently
        # of machine speed.
        counters = {
            f"{row['benchmark']}.{stat}": value
            for row in rows
            for stat, value in sorted(row["stats"].items())
            if isinstance(value, int) and not isinstance(value, bool)
        }
        snapshot = {
            "schema": "spllift-metrics/v1",
            "source": "bench_solver",
            "git_revision": report["git_revision"],
            "metrics": {"counters": counters, "gauges": {}, "histograms": {}},
        }
        args.stats_out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.stats_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
