"""The ``spllift`` command-line tool.

Analyze a MiniJava product line from the shell::

    spllift analyze shop.mj --analysis taint --feature-model shop.fm
    spllift analyze shop.mj --analysis uninit --fm-mode ignore
    spllift interfaces shop.mj --feature Discount --feature-model shop.fm
    spllift run shop.mj --config Discount,Tax
    spllift metrics shop.mj --feature-model shop.fm
    spllift batch manifest.json --report report.json
    spllift cache stats
    spllift serve --cache-dir sqlite:///var/tmp/fleet.db --port 8765

``analyze`` prints, per finding, the statement and the feature constraint
under which it occurs; ``interfaces`` prints a feature's emergent
interface; ``run`` executes one configuration with the interpreter;
``metrics`` prints the Table-1-style subject metrics; ``batch`` fans a
manifest of jobs (a flat list or a dependency DAG) over the analysis
service (worker pool + result store); ``cache`` inspects, prunes (LRU,
``--max-bytes``), or clears the store; ``serve`` shares one store with a
fleet of schedulers over HTTP.

Everywhere a cache dir is accepted, the spec selects the store backend:
a plain path (directory store), ``sqlite://file.db`` (single-file WAL
store, safe for concurrent schedulers on one host), or
``http://host:port`` (client of a ``spllift serve`` daemon).

User errors — missing input files, unparseable feature models, unknown
analysis names, bad manifests — exit with status 2 and a one-line
``spllift: error: …`` message, never a traceback.  When stdout's reader
goes away early (``spllift … | head``), the command ends silently with
status 141 (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sqlite3
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.core import compute_emergent_interface
from repro.core.solver import SPLLiftResults
from repro.datalog import resolve_engine
from repro.featuremodel import FeatureModel, FeatureModelError, parse_feature_model
from repro.ifds.worklist import WORKLIST_ORDERS
from repro.interp import Interpreter
from repro.ir.lowering import LoweringError
from repro.ir.program import IRError
from repro.minijava.lexer import LexError
from repro.minijava.parser import ParseError
from repro.obs import runtime as obs
from repro.obs.flight import load_flight_dump, render_postmortem
from repro.obs.log import LOG_ENV, decode_line, format_line, iter_log, parse_line
from repro.obs.progress import ProgressReporter
from repro.obs.regress import (
    compare,
    load_snapshot,
    parse_threshold_overrides,
)
from repro.obs.trace import fold_trace, read_trace, summarize_trace
from repro.service import (
    ServiceError,
    canonical_analysis_name,
    default_cache_dir,
    load_manifest_plan,
    open_store,
    resolve_analysis,
    run_batch,
    serve_store,
)
from repro.service.jobs import read_text
from repro.service.worker import solve_product_line
from repro.spl import ProductLine
from repro.utils import collector, format_count

__all__ = ["main"]

ANALYSES = ("taint", "uninit", "nullness", "types", "rd", "typestate")


def _telemetry_begin(args) -> None:
    """Arm tracing/progress/logging before a command runs
    (``--trace``/``--progress``/``--log``/``$SPLLIFT_LOG``)."""
    if getattr(args, "trace", None):
        obs.enable_tracing()
    if getattr(args, "progress", False):
        obs.set_progress(ProgressReporter())
    log_path = getattr(args, "log", None) or os.environ.get(LOG_ENV)
    if log_path and hasattr(args, "log"):
        obs.enable_log(log_path)
        args._log_enabled = True


def _telemetry_end(args) -> None:
    """Flush telemetry the command collected (``--trace``/``--metrics``)."""
    progress = obs.progress()
    if progress is not None:
        progress.finish()
        obs.set_progress(None)
    obs.write_outputs(
        getattr(args, "trace", None), getattr(args, "metrics_file", None)
    )


def _load_product_line(args) -> ProductLine:
    source = read_text(args.file)
    model = FeatureModel()
    if getattr(args, "feature_model", None):
        model = parse_feature_model(read_text(args.feature_model))
    return ProductLine(name=args.file, source=source, feature_model=model, entry=args.entry)


def _exit_facts(icfg, analysis, results):
    # Informational analyses: report all facts at method exits, in a
    # hash-seed-independent order (the solver's insertion order follows
    # set iteration over facts).
    return [
        (exit_point, fact, f"{fact}")
        for method in icfg.reachable_methods
        for exit_point in method.exit_points
        for fact in sorted(results.results_at(exit_point), key=repr)
    ]


#: Per canonical analysis name, the (statement, fact, description)
#: queries ``analyze`` reports: ``(icfg, analysis, results) -> queries``.
FINDING_QUERIES = {
    "taint": lambda icfg, analysis, results: [
        (stmt, fact, f"secret may reach print of {fact}")
        for stmt, fact in analysis.sink_queries(icfg)
    ],
    "uninitialized_variables": lambda icfg, analysis, results: [
        (stmt, fact, f"read of possibly-uninitialized {fact}")
        for stmt, fact in analysis.use_queries()
    ],
    "nullness": lambda icfg, analysis, results: [
        (stmt, fact, f"possible null dereference of {fact}")
        for stmt, fact in analysis.dereference_queries()
    ],
    "typestate": lambda icfg, analysis, results: [
        (stmt, fact, f"protocol violation: {fact}")
        for stmt, fact in analysis.violation_queries()
    ],
    "possible_types": _exit_facts,
    "reaching_definitions": _exit_facts,
}


def _findings(
    product_line: ProductLine,
    analysis_name: str,
    fm_mode: str,
    worklist_order: Optional[str] = None,
    incremental_cache: Optional[str] = None,
    engine: Optional[str] = None,
) -> Tuple[List[Tuple[str, str, str]], SPLLiftResults]:
    # Engine validation happens here (not via argparse choices) so a bad
    # value follows the clean-error contract: one `spllift: error: …`
    # line, exit 2, no traceback.
    try:
        engine = resolve_engine(engine)
    except ValueError as error:
        raise ServiceError(str(error))
    if engine == "datalog" and incremental_cache:
        raise ServiceError(
            "--engine datalog does not support --incremental-cache "
            "(incremental summary injection is a tabulation-engine feature)"
        )
    name = canonical_analysis_name(analysis_name)
    analysis, results = solve_product_line(
        product_line,
        resolve_analysis(name),
        fm_mode,
        summary_store=open_store(incremental_cache) if incremental_cache else None,
        worklist_order=worklist_order,
        engine=engine,
    )
    findings = []
    with obs.tracer().span("cli/findings"):
        for stmt, fact, description in FINDING_QUERIES[name](
            product_line.icfg, analysis, results
        ):
            constraint = results.finding_constraint(stmt, fact)
            if not constraint.is_false:
                findings.append((stmt.location, description, str(constraint)))
    return findings, results


def _cmd_analyze(args) -> int:
    # The whole command runs with the cyclic collector paused
    # (repro.utils.collector).  The program lives in _analyze's frame,
    # so it is garbage before the collector comes back on.
    with collector.paused():
        return _analyze(args)


def _analyze(args) -> int:
    product_line = _load_product_line(args)
    findings, results = _findings(
        product_line,
        args.analysis,
        args.fm_mode,
        worklist_order=args.worklist_order,
        incremental_cache=args.incremental_cache,
        engine=args.engine,
    )
    if args.incremental_cache:
        # One-line reuse report on stderr; stdout (the findings) must be
        # byte-identical between cold and warm solves.
        stats = results.stats
        print(
            "summaries: "
            f"{stats.get('summaries_reused', 0)} reused, "
            f"{stats.get('summaries_recomputed', 0)} recomputed, "
            f"{stats.get('summaries_invalidated', 0)} invalidated",
            file=sys.stderr,
        )
    if findings:
        print(f"{args.analysis}: {len(findings)} finding(s)")
        for location, description, constraint in findings:
            print(f"  {location}: {description}")
            print(f"      iff {constraint}")
    else:
        print(f"{args.analysis}: no findings (in any valid product)")
    if args.stats:
        print("\nsolver statistics:")
        for key, value in results.stats.items():
            print(f"  {key}: {value}")
    return 1 if findings else 0


def _cmd_interfaces(args) -> int:
    product_line = _load_product_line(args)
    interface = compute_emergent_interface(
        product_line.icfg,
        args.feature,
        feature_model=product_line.feature_model,
    )
    print(interface)
    return 0


def _cmd_run(args) -> int:
    product_line = _load_product_line(args)
    config = frozenset(
        name for name in (args.config or "").split(",") if name
    )
    interpreter = Interpreter(
        product_line.ir, configuration=config, fuel=args.fuel
    )
    trace = interpreter.run(product_line.entry)
    for _, value in trace.prints:
        marker = "  [tainted]" if value.tainted else ""
        print(f"{value.data}{marker}")
    if trace.uninit_reads:
        unique = sorted(
            {(stmt.location, name) for stmt, name in trace.uninit_reads}
        )
        print(f"warning: {len(unique)} uninitialized read(s):", file=sys.stderr)
        for location, name in unique:
            print(f"  {location}: {name}", file=sys.stderr)
    if not trace.completed:
        print(f"execution stopped early: {trace.stop_reason}", file=sys.stderr)
        return 2
    return 0


def _cmd_metrics(args) -> int:
    # Everything that can fail runs before the first print, so a frontend
    # error leaves stdout empty instead of a truncated report.
    product_line = _load_product_line(args)
    icfg = product_line.icfg
    reachable = product_line.features_reachable
    valid = product_line.count_valid_configurations()
    print(f"file:                     {args.file}")
    print(f"KLOC:                     {product_line.kloc:.2f}")
    print(f"features (total):         {product_line.features_total}")
    print(f"features (reachable):     {len(reachable)}: {', '.join(reachable)}")
    print(
        "configurations (reachable): "
        f"{format_count(product_line.configurations_reachable)}"
    )
    print(f"configurations (valid):     {format_count(valid)}")
    print(f"reachable methods:        {len(icfg.reachable_methods)}")
    print(f"reachable statements:     {icfg.instruction_count()}")
    return 0


def _batch_store(args):
    if getattr(args, "no_store", False):
        return None
    return open_store(getattr(args, "cache_dir", None))


def _check_batch_limits(args) -> None:
    """Reject worker, timeout and retry values no batch can run with."""
    if args.jobs is not None and args.jobs < 0:
        raise ServiceError(
            f"--jobs must be >= 0 (0: one worker per CPU), got {args.jobs}"
        )
    if args.timeout is not None and not (
        math.isfinite(args.timeout) and args.timeout > 0
    ):
        raise ServiceError(
            f"--timeout must be a positive number of seconds, "
            f"got {args.timeout:g}"
        )
    if args.retries < 0:
        raise ServiceError(f"--retries must be >= 0, got {args.retries}")
    if args.timeout is not None and args.no_pool:
        raise ServiceError(
            "--timeout bounds pool workers; --no-pool runs every job "
            "in-process, where it cannot be stopped"
        )


def _cmd_batch(args) -> int:
    _check_batch_limits(args)
    plan = load_manifest_plan(args.manifest)
    report = run_batch(
        plan.jobs,
        store=_batch_store(args),
        max_workers=args.jobs,
        job_timeout=args.timeout,
        max_retries=args.retries,
        use_pool=not args.no_pool,
        dependencies=plan.dependencies,
    )
    width = max(len(outcome.job.label) for outcome in report.outcomes)
    for outcome in report.outcomes:
        digest = (outcome.result_digest or "-")[:12]
        line = (
            f"  {outcome.job.label:<{width}}  "
            f"{outcome.job.analysis:<24} {outcome.status:<8} "
            f"{outcome.seconds:7.3f}s  {digest}"
        )
        if outcome.wait_seconds >= 0.0005:
            line += f"  (waited {outcome.wait_seconds:.3f}s)"
        if outcome.error:
            line += f"  ({outcome.error})"
        print(line)
    skipped = f", {report.skipped} skipped" if report.skipped else ""
    waves = f", {report.waves} wave(s)" if plan.has_dependencies else ""
    print(
        f"{len(report.outcomes)} job(s): {report.cached} cached, "
        f"{report.computed} computed, {report.failed} failed{skipped} "
        f"in {report.wall_seconds:.3f}s "
        f"({report.workers} worker(s){waves})"
    )
    hit_ratio = obs.metrics().hit_ratio("store.get_hits", "store.get_misses")
    if hit_ratio is not None:
        print(f"store hit ratio: {hit_ratio:.2f}")
    inline = report.executors.get("inline", 0)
    if args.timeout is not None and inline:
        # --timeout with --no-pool is refused up front, so an inline job
        # here means no worker process could start.
        print(
            f"spllift: warning: {inline} job(s) ran in-process without "
            f"the --timeout {args.timeout:g}s bound: no worker process "
            "could start",
            file=sys.stderr,
        )
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.describe(), indent=1, sort_keys=True) + "\n"
        )
        print(f"report written to {args.report}")
    return 0 if report.ok else 1


def _cmd_cache(args) -> int:
    store = open_store(args.cache_dir)
    if args.action == "stats":
        stats = store.stats()
        root = stats.get("url") or stats.get("root", "")
        print(f"cache root: {root}")
        print(f"backend:    {stats.get('backend', store.kind)}")
        print(f"records:    {stats['records']}")
        print(f"bytes:      {stats['bytes']}")
        print(f"corrupt:    {stats['corrupt']}")
        session = stats.get("session") or {}
        if session.get("gets"):
            print(
                f"hit_ratio:  {session['hit_ratio']:.2f} "
                f"({session['hits']}/{session['gets']} gets this session)"
            )
        else:
            print("hit_ratio:  n/a (no gets this session)")
        for kind, count in sorted(stats["kinds"].items()):
            print(f"  {kind}: {count}")
        return 0
    if args.action == "prune":
        if args.max_bytes is None or args.max_bytes < 0:
            print(
                "spllift: error: cache prune requires --max-bytes >= 0",
                file=sys.stderr,
            )
            return 2
        summary = store.prune(args.max_bytes)
        print(
            f"pruned {summary['removed']} record(s) "
            f"({summary['freed_bytes']} bytes) from {_store_location(store)}"
        )
        print(
            f"remaining: {summary['remaining_records']} record(s), "
            f"{summary['remaining_bytes']} bytes"
        )
        return 0
    removed = store.clear()
    print(f"removed {removed} record(s) from {_store_location(store)}")
    return 0


def _store_location(store) -> str:
    """Where a store lives, backend-independently (for messages)."""
    for attribute in ("root", "path", "base_url"):
        value = getattr(store, attribute, None)
        if value is not None:
            return str(value)
    return store.kind


def _cmd_serve(args) -> int:
    if not 0 <= args.port <= 65535:
        raise ServiceError(f"--port must be in 0..65535, got {args.port}")
    spec = args.cache_dir
    if spec and str(spec).startswith(("http://", "https://")):
        raise ServiceError(
            "cannot serve an http:// store — point clients at it directly"
        )
    store = open_store(spec)

    def announce(host: str, port: int) -> None:
        print(
            f"serving {store.kind} store {_store_location(store)} "
            f"on http://{host}:{port}",
            flush=True,
        )
        print(
            f"point clients at it with --cache-dir http://{host}:{port}",
            flush=True,
        )

    serve_store(
        store,
        host=args.host,
        port=args.port,
        verbose=args.verbose,
        ready_callback=announce,
    )
    return 0


def _cmd_trace(args) -> int:
    try:
        events = read_trace(args.file)
    except ValueError as error:
        # Truncated (a killed --trace run) or non-UTF-8 trace files must
        # follow the one-line error contract, not traceback.
        raise ServiceError(str(error))
    spans = [event for event in events if event.get("ph") in ("B", "E", "i")]
    if not spans:
        print(f"spllift: error: no trace events in {args.file}", file=sys.stderr)
        return 2
    if getattr(args, "folded", False):
        # Folded-stack export (`flamegraph.pl`-compatible): one line per
        # distinct stack, self time in microseconds.  Machine output only
        # — no headers, so it pipes straight into flamegraph tooling.
        lines = fold_trace(events)
        if not lines:
            print(
                f"spllift: error: no closed spans to fold in {args.file}",
                file=sys.stderr,
            )
            return 2
        for line in lines:
            print(line)
        return 0
    summary = summarize_trace(events)
    pids = sorted({event.get("pid", 0) for event in spans})
    print(f"trace: {args.file}")
    print(
        f"events: {len(spans)}  processes: {len(pids)}  "
        f"wall: {summary['wall_us'] / 1e6:.3f}s"
    )
    print(f"{'span':<28} {'count':>8} {'total':>11} {'% wall':>8}")
    for row in summary["rows"]:
        print(
            f"{row['name']:<28} {row['count']:>8} "
            f"{row['total_us'] / 1e6:>10.3f}s {row['pct']:>7.1f}%"
        )
    print(
        f"top-level span coverage: {summary['coverage_pct']:.1f}% of wall time"
    )
    return 0


def _cmd_obs_postmortem(args) -> int:
    try:
        document = load_flight_dump(args.file)
    except ValueError as error:
        raise ServiceError(str(error))
    dumps = document["dumps"]
    for position, dump in enumerate(dumps):
        if position:
            print()
        for line in render_postmortem(dump, last=args.last):
            print(line)
    if len(dumps) > 1:
        print()
        print(f"{len(dumps)} flight dump(s) in {args.file}")
    return 0


def _cmd_obs_diff(args) -> int:
    try:
        overrides = parse_threshold_overrides(args.threshold_for)
        baseline = load_snapshot(args.baseline)
        current = load_snapshot(args.current)
    except ValueError as error:
        raise ServiceError(str(error))
    violations, report = compare(
        baseline,
        current,
        args.threshold,
        overrides,
        args.only,
        args.ignore,
        args.allow_missing,
    )
    for line in report:
        if not args.quiet or line.endswith(("DRIFT", "MISSING")):
            print(line)
    compared = sum(1 for line in report if "->" in line)
    missing = sum(1 for line in report if ": missing from" in line)
    scope = f"{compared} metric(s) compared"
    if missing:
        scope += f", {missing} missing"
    print(
        f"obs diff: {scope}: "
        + ("OK" if not violations else f"{len(violations)} violation(s)")
    )
    return 1 if violations else 0


def _cmd_obs_tail(args) -> int:
    try:
        records = list(iter_log(args.file))
    except ValueError as error:
        raise ServiceError(str(error))
    for record in records[-args.lines:] if args.lines else records:
        print(format_line(record))
    if not args.follow:
        return 0
    try:
        with open(args.file, "rb") as handle:
            offset = handle.seek(0, 2)  # only lines appended from now on
            while True:
                raw = handle.readline()
                if not raw:
                    time.sleep(0.25)
                    continue
                try:
                    line = decode_line(args.file, raw, offset)
                except ValueError as error:
                    raise ServiceError(str(error))
                offset += len(raw)
                record = parse_line(line)  # None: torn line mid-write
                if record is not None:
                    print(format_line(record), flush=True)
    except KeyboardInterrupt:
        return 0


def _cmd_obs(args) -> int:
    handlers = {
        "postmortem": _cmd_obs_postmortem,
        "diff": _cmd_obs_diff,
        "tail": _cmd_obs_tail,
    }
    return handlers[args.obs_command](args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spllift",
        description="Feature-sensitive static analysis of MiniJava "
        "product lines (SPLLIFT, PLDI 2013).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p) -> None:
        p.add_argument("file", help="MiniJava product-line source file")
        p.add_argument(
            "--feature-model", help="feature model file (textual format)"
        )
        p.add_argument(
            "--entry", default="Main.main", help="entry point (default Main.main)"
        )

    def telemetry(p) -> None:
        p.add_argument(
            "--trace",
            metavar="FILE",
            help="write a Chrome trace_event span trace here (opens in "
            "Perfetto; summarize with `spllift trace summary FILE`)",
        )
        p.add_argument(
            "--metrics",
            dest="metrics_file",
            metavar="FILE",
            help="write the metrics registry (counters/gauges/histograms) "
            "as JSON here",
        )
        p.add_argument(
            "--log",
            metavar="FILE",
            default=None,
            help="append a structured JSONL event log here (run id, job "
            "digests, span-correlated; workers append to the same file; "
            "default: $SPLLIFT_LOG)",
        )

    analyze = sub.add_parser("analyze", help="run a lifted analysis")
    common(analyze)
    analyze.add_argument(
        "--analysis", choices=ANALYSES, default="taint", help="which analysis"
    )
    analyze.add_argument(
        "--fm-mode",
        choices=("edge", "seed", "ignore"),
        default="edge",
        help="how to use the feature model (Section 4.2)",
    )
    analyze.add_argument(
        "--stats", action="store_true", help="print solver statistics"
    )
    analyze.add_argument(
        "--worklist-order",
        choices=WORKLIST_ORDERS,
        default=None,
        help="phase-I worklist scheduling; the fixed point is "
        "order-independent, the work is not (default: rpo, which "
        "re-joins least)",
    )
    analyze.add_argument(
        "--engine",
        default=None,
        metavar="ENGINE",
        help="evaluation engine: 'tabulate' (two-phase IDE tabulation, "
        "the default) or 'datalog' (semi-naive lifted-Datalog fixpoint; "
        "bit-identical results, no --incremental-cache)",
    )
    analyze.add_argument(
        "--incremental-cache",
        metavar="SPEC",
        default=None,
        help="method-summary store for incremental re-analysis: a path, "
        "sqlite://file.db, or http://host:port; summaries of "
        "content-unchanged methods are reused and fresh ones stored "
        "back (results bit-identical to a cold solve)",
    )
    telemetry(analyze)
    analyze.add_argument(
        "--progress",
        action="store_true",
        help="live progress line (worklist depth, jump functions, BDD "
        "nodes, elapsed) on stderr",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    interfaces = sub.add_parser(
        "interfaces", help="compute a feature's emergent interface"
    )
    common(interfaces)
    interfaces.add_argument("--feature", required=True, help="feature name")
    interfaces.set_defaults(handler=_cmd_interfaces)

    run = sub.add_parser("run", help="execute one configuration")
    common(run)
    run.add_argument(
        "--config", default="", help="comma-separated enabled features"
    )
    run.add_argument("--fuel", type=int, default=200_000, help="step budget")
    run.set_defaults(handler=_cmd_run)

    metrics = sub.add_parser("metrics", help="print subject metrics")
    common(metrics)
    metrics.set_defaults(handler=_cmd_metrics)

    batch = sub.add_parser(
        "batch", help="run a manifest of jobs through the analysis service"
    )
    batch.add_argument("manifest", help="batch manifest (JSON)")
    batch.add_argument(
        "--cache-dir",
        help="result store spec: a path, sqlite://file.db, or "
        f"http://host:port (default {default_cache_dir()})",
    )
    batch.add_argument(
        "--no-store",
        action="store_true",
        help="skip the result store (always solve)",
    )
    batch.add_argument(
        "--jobs",
        type=int,
        help="worker processes (default, or 0: one per CPU)",
    )
    batch.add_argument(
        "--timeout",
        type=float,
        help="per-job timeout in seconds; it bounds pool workers, so it "
        "cannot be combined with --no-pool",
    )
    batch.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries per job after a worker crash (default 1)",
    )
    batch.add_argument(
        "--no-pool",
        action="store_true",
        help="run jobs in-process instead of a worker pool",
    )
    batch.add_argument("--report", help="write the batch report JSON here")
    telemetry(batch)
    batch.add_argument(
        "--progress",
        action="store_true",
        help="live status line (wave, settled/total jobs, store hit "
        "ratio) on stderr",
    )
    batch.set_defaults(handler=_cmd_batch)

    trace = sub.add_parser(
        "trace", help="inspect trace files written by --trace"
    )
    trace.add_argument("action", choices=("summary",))
    trace.add_argument("file", help="trace file (Chrome trace_event JSON)")
    trace.add_argument(
        "--folded",
        action="store_true",
        help="emit folded-stack lines (`stack;frames self_us`) for "
        "flamegraph.pl / speedscope instead of the summary table",
    )
    trace.set_defaults(handler=_cmd_trace)

    obs_parser = sub.add_parser(
        "obs",
        help="operational observability: postmortems, metric diffs, "
        "event-log tailing",
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)

    postmortem = obs_sub.add_parser(
        "postmortem",
        help="reconstruct a dead worker's last moments from a flight "
        "dump or a batch report carrying flight attachments",
    )
    postmortem.add_argument(
        "file",
        help="a spllift-flight/v1 dump, or a batch --report JSON whose "
        "failed/crashed jobs carry flight dumps",
    )
    postmortem.add_argument(
        "--last",
        type=int,
        default=50,
        metavar="N",
        help="events to show per dump (default 50; 0 = all retained)",
    )
    postmortem.set_defaults(handler=_cmd_obs)

    diff = obs_sub.add_parser(
        "diff",
        help="compare two --metrics snapshots and report counter drift "
        "(summary-reuse ratios, datalog.* counters, store hit rates)",
    )
    diff.add_argument("baseline", help="baseline --metrics snapshot")
    diff.add_argument("current", help="current --metrics snapshot")
    diff.add_argument(
        "--threshold",
        type=float,
        default=0.1,
        help="default relative drift threshold (fraction; default 0.1 "
        "= ±10%%)",
    )
    diff.add_argument(
        "--threshold-for",
        action="append",
        default=[],
        metavar="PATTERN=FRACTION",
        help="per-counter threshold override (fnmatch pattern; repeatable)",
    )
    diff.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="PATTERN",
        help="compare only matching names (repeatable)",
    )
    diff.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="PATTERN",
        help="skip matching names (repeatable)",
    )
    diff.add_argument(
        "--allow-missing",
        action="store_true",
        help="report but do not fail on keys present in one snapshot only",
    )
    diff.add_argument(
        "--quiet",
        action="store_true",
        help="print only violations and the verdict line",
    )
    diff.set_defaults(handler=_cmd_obs)

    tail = obs_sub.add_parser(
        "tail", help="render a structured event log (--log) for humans"
    )
    tail.add_argument("file", help="JSONL event log written via --log")
    tail.add_argument(
        "--lines",
        "-n",
        type=int,
        default=20,
        help="show the last N records (default 20; 0 = all)",
    )
    tail.add_argument(
        "--follow",
        "-f",
        action="store_true",
        help="keep the file open and stream new records (live fleets)",
    )
    tail.set_defaults(handler=_cmd_obs)

    cache = sub.add_parser(
        "cache", help="inspect, prune, or clear the result store"
    )
    cache.add_argument("action", choices=("stats", "prune", "clear"))
    cache.add_argument(
        "--cache-dir",
        help="result store spec: a path, sqlite://file.db, or "
        f"http://host:port (default {default_cache_dir()})",
    )
    cache.add_argument(
        "--max-bytes",
        type=int,
        help="prune: evict least-recently-used records down to this size",
    )
    cache.set_defaults(handler=_cmd_cache)

    serve = sub.add_parser(
        "serve",
        help="serve a result store over HTTP to a fleet of schedulers",
    )
    serve.add_argument(
        "--cache-dir",
        help="store to serve: a path or sqlite://file.db "
        f"(default {default_cache_dir()})",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port (default 8765; 0 picks a free port)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log each request to stderr"
    )
    serve.set_defaults(handler=_cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _telemetry_begin(args)
    try:
        code = args.handler(args)
        _telemetry_end(args)
        sys.stdout.flush()  # a reader that has gone fails here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader has gone (`spllift … | head`): not a user error.
        # Point stdout at devnull so the exit-time flush writes nothing,
        # and end with 128 + SIGPIPE, the status a shell shows for a tool
        # that SIGPIPE killed.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (
        ServiceError,
        FeatureModelError,
        LexError,
        ParseError,
        LoweringError,
        IRError,
    ) as error:
        print(f"spllift: error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        name = error.filename if error.filename else ""
        detail = error.strerror or str(error)
        suffix = f": {name}" if name else ""
        print(f"spllift: error: {detail}{suffix}", file=sys.stderr)
        return 2
    except sqlite3.Error as error:
        print(f"spllift: error: sqlite store: {error}", file=sys.stderr)
        return 2
    finally:
        # Commands are one-shot, but `main` is also called in-process
        # (tests, scripts): leave no tracing, progress or log state behind.
        if getattr(args, "trace", None):
            obs.disable_tracing()
        if getattr(args, "_log_enabled", False):
            obs.disable_log()
        obs.set_progress(None)


if __name__ == "__main__":
    sys.exit(main())
