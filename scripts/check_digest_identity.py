#!/usr/bin/env python
"""Prove worklist-scheduling policies don't change analysis results.

Solves all 12 paper subject x analysis combinations once per worklist
order and asserts the canonical ``result_digest`` is bit-identical across
orders.  This is the regression gate behind ``repro.ifds.worklist``:
iteration order may change how much work the IDE solver does, never what
it computes.

Usage::

    PYTHONPATH=src python scripts/check_digest_identity.py
    PYTHONPATH=src python scripts/check_digest_identity.py --orders fifo rpo
    PYTHONPATH=src python scripts/check_digest_identity.py --engine datalog
    PYTHONPATH=src python scripts/check_digest_identity.py --baseline digests.json
    PYTHONPATH=src python scripts/check_digest_identity.py --dump digests.json

``--engine datalog`` re-solves every combination with the lifted-Datalog
evaluation engine and requires its digests bit-identical to the
tabulation reference — the cross-checking gate behind ``repro.datalog``.
``--telemetry`` re-solves with tracing and metrics enabled and requires
the digests to stay bit-identical — the gate behind ``repro.obs``:
observing the solver must never change what it computes.
``--obs`` extends that gate to the full observability stack: one
in-process pass from a fresh flight ring with a progress line drawn to
memory, and one batch pass through a served HTTP store with a run id
set (so trace-context propagation headers ride every request) and the
structured event log armed — all digests must stay bit-identical to the
bare reference, the progress line must have drawn, and every batch job
must leave a ``job.done`` log line.
``--backends`` routes the paper campaign through the batch scheduler
against a sqlite store and a served HTTP store, asserting (a) the
computed result digests match the direct-solve reference and (b) a
second run is served 100% from each store with identical digests — the
gate behind ``repro.service.backends``: where a result is stored must
never change what it says.  ``--incremental`` gates the incremental
solve path (``repro.ide.summaries``) once per ``--orders`` entry: per
subject, populate a summary store, apply a scripted one-method edit, and
require the warm re-solve bit-identical to a cold solve of the edited
subject with a reuse ratio of at least 0.8, every solve under that
order.  ``--baseline`` compares the first order's
digests against a saved snapshot (written by ``--dump``), catching
semantic drift between revisions, not just between orders.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import tempfile
import threading
from pathlib import Path

from repro.analyses import PAPER_ANALYSES
from repro.core import SPLLift
from repro.ifds.worklist import WORKLIST_ORDERS
from repro.obs import runtime as obs
from repro.obs.log import iter_log
from repro.obs.progress import ProgressReporter
from repro.spl.benchmarks import paper_subjects


def slug(analysis_name: str) -> str:
    return analysis_name.lower().replace(" ", "_")


def compute_digests(order: str, seed: int, engine: str = None) -> dict:
    digests = {}
    for subject_name, builder in paper_subjects():
        product_line = builder()
        for analysis_name, analysis_cls in PAPER_ANALYSES:
            results = SPLLift(
                analysis_cls(product_line.icfg),
                feature_model=product_line.feature_model,
            ).solve(
                worklist_order=order,
                order_seed=seed,
                engine=engine,
            )
            digests[f"{subject_name}/{slug(analysis_name)}"] = (
                results.result_digest()
            )
    return digests


def check_incremental(reference: dict, order: str, seed: int) -> int:
    """Gate the incremental solve path under ``order``; count mismatches.

    For each of the 12 subject × analysis combinations, against a
    per-subject sqlite summary store, every solve under ``order``:

    1. a *populate* solve of the pristine subject with the summary cache
       armed — its digest must equal the cold reference (arming the
       cache on a cold store must change nothing);
    2. a scripted one-method edit (``repro.spl.edits``), then a cold
       solve of the edited subject — the new reference;
    3. a *warm* incremental solve of the same edited subject — digest
       bit-identical to (2), with ``summaries_reused > 0`` and a reuse
       ratio ≥ 0.8 (the 1-of-N edit must be near-O(dirty) work).
    """
    from repro.ide.summaries import summary_cache_for
    from repro.service import open_store
    from repro.spl.edits import edited_product_line

    failures = 0
    rows = 0
    with tempfile.TemporaryDirectory(prefix="spllift-incremental-") as tmp:
        for subject_name, builder in paper_subjects():
            store = open_store(f"sqlite://{Path(tmp) / subject_name}.db")
            for analysis_name, analysis_cls in PAPER_ANALYSES:
                key = f"{subject_name}/{slug(analysis_name)}"
                rows += 1

                def lift(product_line):
                    return SPLLift(
                        analysis_cls(product_line.icfg),
                        feature_model=product_line.feature_model,
                    )

                populate = lift(builder())
                populated = populate.solve(
                    worklist_order=order,
                    order_seed=seed,
                    summaries=summary_cache_for(populate, store),
                ).result_digest()
                if populated != reference[key]:
                    failures += 1
                    print(
                        f"INCREMENTAL POPULATE MISMATCH {key} ({order}): "
                        f"{populated[:16]}… vs {reference[key][:16]}…"
                    )

                edited, target, dirty = edited_product_line(builder())
                cold = lift(edited).solve(
                    worklist_order=order, order_seed=seed
                ).result_digest()

                edited_again, _, _ = edited_product_line(builder())
                warm_solver = lift(edited_again)
                warm = warm_solver.solve(
                    worklist_order=order,
                    order_seed=seed,
                    summaries=summary_cache_for(warm_solver, store),
                )
                stats = warm.stats
                reused = stats.get("summaries_reused", 0)
                recomputed = stats.get("summaries_recomputed", 0)
                ratio = reused / max(1, reused + recomputed)
                if warm.result_digest() != cold:
                    failures += 1
                    print(
                        f"INCREMENTAL MISMATCH {key} ({order}, edit {target}): "
                        f"warm={warm.result_digest()[:16]}… cold={cold[:16]}…"
                    )
                if reused == 0:
                    failures += 1
                    print(
                        f"INCREMENTAL NO REUSE {key} ({order}, edit {target})"
                    )
                if ratio < 0.8:
                    failures += 1
                    print(
                        f"INCREMENTAL LOW REUSE {key} "
                        f"({order}, edit {target}): "
                        f"{reused} reused / {recomputed} recomputed "
                        f"= {ratio:.2f} < 0.8"
                    )
    print(
        f"{rows} digests cold vs incremental (1-method edit, {order}): "
        + ("all identical" if not failures else f"{failures} failures")
    )
    return failures


def check_obs(reference: dict, order: str, seed: int) -> int:
    """Gate the observability stack; count mismatches.

    Two passes, both of which must be invisible in the results:

    1. flight ring and progress line, all 12 combinations re-solved in
       process from a fresh ring with a ``ProgressReporter`` drawing
       every heartbeat to an in-memory stream — so each solve runs the
       progress path, including the ``bdd_nodes`` hook ``SPLLift.solve``
       installs; a reporter that drew nothing counts as a failure.
       Direct ``SPLLift.solve`` calls emit no log events, so this pass
       arms no log;
    2. the paper campaign run as a batch against a served HTTP store
       with a run id set, so every store request carries the
       ``X-SPLLIFT-Run-Id``/``X-SPLLIFT-Parent-Span`` propagation
       headers and the server opens correlated request spans, with the
       structured event log armed; a job without a ``job.done`` line
       counts as a failure.
    """
    from repro.service import make_server, open_store, run_batch

    failures = 0
    with tempfile.TemporaryDirectory(prefix="spllift-obs-") as tmp:
        obs.reset()
        reporter = ProgressReporter(stream=io.StringIO(), interval=0.0)
        obs.set_progress(reporter)
        try:
            observed = compute_digests(order, seed)
        finally:
            flight_events = len(obs.flight().events())
            obs.reset()
        observed_failures = 0
        for key, digest in observed.items():
            if digest != reference[key]:
                observed_failures += 1
                print(
                    f"OBS MISMATCH {key}: observed={digest[:16]}… "
                    f"bare={reference[key][:16]}…"
                )
        if not reporter.updates:
            observed_failures += 1
            print("OBS PROGRESS drew no update")
        failures += observed_failures
        print(
            f"{len(observed)} digests with flight ring and progress "
            f"({flight_events} ring events, {reporter.updates} progress "
            "updates): "
            + (
                "all identical to bare"
                if not observed_failures
                else f"{observed_failures} mismatches"
            )
        )

        from repro.service import paper_campaign_jobs

        served = open_store(f"sqlite://{Path(tmp) / 'served.db'}")
        server = make_server(served, port=0)
        host, port = server.server_address
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        obs.reset()
        run = obs.ensure_run_id()
        batch_log = Path(tmp) / "batch-events.jsonl"
        obs.enable_log(batch_log)
        propagated_failures = 0
        try:
            report = run_batch(
                paper_campaign_jobs(),
                store=open_store(f"http://{host}:{port}"),
                max_workers=2,
            )
        finally:
            server.shutdown()
            thread.join(timeout=5)
            log_records = list(iter_log(batch_log))
            obs.disable_log()
            obs.reset()
        done = {
            record.get("digest")
            for record in log_records
            if record.get("event") == "job.done"
        }
        for outcome in report.outcomes:
            key = f"{outcome.job.label}/{outcome.job.analysis}"
            expected = reference.get(key)
            if expected is None or outcome.result_digest != expected:
                propagated_failures += 1
                print(
                    f"OBS PROPAGATION MISMATCH {key}: "
                    f"{str(outcome.result_digest)[:16]}… vs "
                    f"{str(expected)[:16]}…"
                )
            if outcome.job.digest[:12] not in done:
                propagated_failures += 1
                print(f"OBS LOG MISSING job.done for {key}")
        failures += propagated_failures
        print(
            f"{len(report.outcomes)} digests via HTTP store with "
            f"trace-context propagation (run {run[:8]}…, "
            f"{len(log_records)} log lines, "
            f"{len(done)} job.done): "
            + (
                "all identical to bare"
                if not propagated_failures
                else f"{propagated_failures} failures"
            )
        )
    return failures


def check_backends(reference: dict) -> int:
    """Run the paper campaign through each store backend; count mismatches.

    For sqlite and HTTP each: a cold batch populates the store and its
    computed digests must match ``reference``; a warm batch must be
    served entirely from the store with the same digests.
    """
    from repro.service import make_server, open_store, paper_campaign_jobs

    jobs = paper_campaign_jobs()
    failures = 0

    def run_rounds(backend_name: str, store) -> int:
        from repro.service import run_batch

        bad = 0
        for phase in ("cold", "warm"):
            report = run_batch(jobs, store=store, max_workers=2)
            for outcome in report.outcomes:
                key = f"{outcome.job.label}/{outcome.job.analysis}"
                expected = reference.get(key)
                digest = outcome.result_digest
                if expected is None or digest != expected:
                    bad += 1
                    print(
                        f"BACKEND MISMATCH ({backend_name}, {phase}) {key}: "
                        f"{str(digest)[:16]}… vs {str(expected)[:16]}…"
                    )
            if phase == "warm" and report.cached != len(jobs):
                bad += 1
                print(
                    f"BACKEND MISS ({backend_name}): warm run served "
                    f"{report.cached}/{len(jobs)} from the store"
                )
        print(
            f"{len(jobs)} digests × cold+warm via {backend_name} store: "
            + ("all identical" if not bad else f"{bad} mismatches")
        )
        return bad

    with tempfile.TemporaryDirectory(prefix="spllift-backends-") as tmp:
        failures += run_rounds(
            "sqlite", open_store(f"sqlite://{Path(tmp) / 'fleet.db'}")
        )

        served = open_store(f"sqlite://{Path(tmp) / 'served.db'}")
        server = make_server(served, port=0)
        host, port = server.server_address
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            failures += run_rounds("http", open_store(f"http://{host}:{port}"))
        finally:
            server.shutdown()
            thread.join(timeout=5)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--orders",
        nargs="+",
        default=list(WORKLIST_ORDERS),
        choices=WORKLIST_ORDERS,
        help="worklist orders to compare (default: all)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="seed for the random order"
    )
    parser.add_argument(
        "--engine",
        default=None,
        metavar="ENGINE",
        help="also solve every combination with this evaluation engine "
        "(e.g. datalog) and require digests identical to the tabulation "
        "reference — the gate behind repro.datalog",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="also solve with tracing/metrics enabled and require digests "
        "identical to the untraced reference",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="also re-solve from a fresh flight ring, and run the "
        "campaign through a served HTTP store with trace-context "
        "propagation headers and the event log armed, requiring "
        "identical digests and a job.done log line per job",
    )
    parser.add_argument(
        "--backends",
        action="store_true",
        help="also run the campaign through the sqlite and HTTP store "
        "backends and require identical digests cold and warm",
    )
    parser.add_argument(
        "--incremental",
        action="store_true",
        help="also gate the incremental solve path once per order: "
        "populate a summary store, edit one method per subject, and "
        "require the warm re-solve bit-identical to a cold solve of the "
        "edited subject with reuse ratio >= 0.8",
    )
    parser.add_argument(
        "--baseline",
        help="JSON file of reference digests to compare the first order against",
    )
    parser.add_argument(
        "--dump", help="write the first order's digests to this JSON file"
    )
    args = parser.parse_args(argv)

    per_order = {order: compute_digests(order, args.seed) for order in args.orders}
    reference_order = args.orders[0]
    reference = per_order[reference_order]

    failures = 0
    for order, digests in per_order.items():
        for key, digest in digests.items():
            if digest != reference[key]:
                failures += 1
                print(
                    f"MISMATCH {key}: {order}={digest[:16]}… "
                    f"{reference_order}={reference[key][:16]}…"
                )
    print(
        f"{len(reference)} subject/analysis digests × "
        f"{len(args.orders)} orders ({', '.join(args.orders)}): "
        + ("all identical" if not failures else f"{failures} mismatches")
    )

    if args.engine is not None:
        engine_digests = compute_digests(
            reference_order, args.seed, engine=args.engine
        )
        engine_failures = 0
        for key, digest in engine_digests.items():
            if digest != reference[key]:
                engine_failures += 1
                print(
                    f"ENGINE MISMATCH {key}: "
                    f"{args.engine}={digest[:16]}… "
                    f"tabulate={reference[key][:16]}…"
                )
        failures += engine_failures
        print(
            f"{len(engine_digests)} digests with engine={args.engine}: "
            + (
                "all identical to tabulation"
                if not engine_failures
                else f"{engine_failures} mismatches"
            )
        )

    if args.telemetry:
        obs.reset()
        obs.enable_tracing()
        try:
            traced = compute_digests(reference_order, args.seed)
        finally:
            traced_events = len(obs.tracer().events())
            obs.disable_tracing()
            obs.reset()
        traced_failures = 0
        for key, digest in traced.items():
            if digest != reference[key]:
                traced_failures += 1
                print(
                    f"TELEMETRY MISMATCH {key}: "
                    f"traced={digest[:16]}… untraced={reference[key][:16]}…"
                )
        failures += traced_failures
        print(
            f"{len(traced)} digests with telemetry on "
            f"({traced_events} trace events): "
            + (
                "all identical to untraced"
                if not traced_failures
                else f"{traced_failures} mismatches"
            )
        )

    if args.obs:
        failures += check_obs(reference, reference_order, args.seed)

    if args.backends:
        failures += check_backends(reference)

    if args.incremental:
        for order in args.orders:
            failures += check_incremental(reference, order, args.seed)

    if args.baseline:
        saved = json.load(open(args.baseline))
        drift = {k for k in saved if saved[k] != reference.get(k)}
        missing = set(saved) - set(reference)
        for key in sorted(drift | missing):
            failures += 1
            print(f"BASELINE DRIFT {key}")
        if not (drift or missing):
            print(f"baseline {args.baseline}: no drift")

    if args.dump:
        with open(args.dump, "w") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
        print(f"wrote {len(reference)} digests to {args.dump}")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
