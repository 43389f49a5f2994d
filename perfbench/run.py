"""perfbench: the repository benchmark (see README.md).

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 24 --trace 0

runs one workload: a fixed number of passes, each in a fresh workload
process (``child.py``) with a pinned environment, then checks every op's
output against the expected outputs and prints a report.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).

Other modes:

    --regen            write expected/seed-<SEED>.json (reference.py)
    --self-test        a tampered expected entry must fail its op
    --aa               A/A report: two sets of runs of the same code
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
EXPECTED = HERE / "expected"

WORKLOADS = ("campaign", "a2_sweep", "edit_loop")

#: Passes per run at ``--seconds 24``; other values scale them.  A fixed
#: count, so the work of a run never depends on the speed of the machine.
#: Each pass runs in a workload process of its own, which sets up first,
#: so the count is also the number of ``setup_s`` samples.
PASSES_AT_24S = 3
#: Passes needed for at least 20 ops, the fewest an op percentile uses.
MIN_PASSES = {"campaign": 2, "a2_sweep": 1, "edit_loop": 1}
#: A run must end within 180 s; its processes share this much of it.
RUN_TIMEOUT_S = 170
#: Runs per set of the A/A report.
AA_RUNS = 5

#: (name, unit, better, bound): bound is the share of the parent's
#: median by which the metric may get worse.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_TIME, _COUNT, _RATIO = "s", "count", "ratio"
#: (name, unit, better) of every per-layer metric of the traced run.
PER_LAYER = (
    ("minijava.parse_s", _TIME, "lower"),
    ("minijava.parse_calls", _COUNT, "lower"),
    ("minijava.source_kb", "KB", "lower"),
    ("ir.lower_s", _TIME, "lower"),
    ("ir.icfg_s", _TIME, "lower"),
    ("ir.instructions", _COUNT, "lower"),
    ("featuremodel.parse_s", _TIME, "lower"),
    ("featuremodel.configs_s", _TIME, "lower"),
    ("featuremodel.configs", _COUNT, "lower"),
    ("core.lift_s", _TIME, "lower"),
    ("ide.solve_s", _TIME, "lower"),
    ("ide.phase1_s", _TIME, "lower"),
    ("ide.phase2_s", _TIME, "lower"),
    ("ide.jump_functions", _COUNT, "lower"),
    ("ide.flow_applications", _COUNT, "lower"),
    ("ide.value_batch_joins", _COUNT, "lower"),
    ("ide.edge_compositions", _COUNT, "lower"),
    ("ide.compose_hit_ratio", _RATIO, "higher"),
    ("ide.join_hit_ratio", _RATIO, "higher"),
    ("bdd.nodes", _COUNT, "lower"),
    ("bdd.apply_calls", _COUNT, "lower"),
    ("bdd.apply_hit_ratio", _RATIO, "higher"),
    ("core.result_lines_s", _TIME, "lower"),
    ("core.result_digest_s", _TIME, "lower"),
    ("core.lines_rendered", _COUNT, "lower"),
    ("core.render_distinct_ratio", _RATIO, "higher"),
    ("core.renders_per_job", _COUNT, "lower"),
    ("service.build_record_s", _TIME, "lower"),
    ("service.batch_self_s", _TIME, "lower"),
    ("service.store_put_s", _TIME, "lower"),
    ("service.store_puts", _COUNT, "lower"),
    ("service.store_put_mb", "MB", "lower"),
    ("service.store_get_s", _TIME, "lower"),
    ("service.store_gets", _COUNT, "lower"),
    ("service.store_hit_ratio", _RATIO, "higher"),
    ("ide.summary_reuse_s", _TIME, "lower"),
    ("ide.summary_harvest_s", _TIME, "lower"),
    ("ide.summaries_reused", _COUNT, "higher"),
    ("ide.summaries_recomputed", _COUNT, "lower"),
    ("ide.summaries_invalidated", _COUNT, "lower"),
    ("ide.summary_reuse_ratio", _RATIO, "higher"),
    ("cli.self_s", _TIME, "lower"),
    ("cli.findings", _COUNT, "lower"),
    ("baselines.a2_setup_s", _TIME, "lower"),
    ("ifds.init_s", _TIME, "lower"),
    ("ifds.solve_s", _TIME, "lower"),
    ("ifds.path_edges", _COUNT, "lower"),
    ("ifds.flow_applications", _COUNT, "lower"),
    ("obs.publish_s", _TIME, "lower"),
    ("obs.publish_calls", _COUNT, "lower"),
    ("trace.bookkeeping_s", _TIME, "lower"),
    ("trace.pass_s", _TIME, "lower"),
    ("trace.unattributed_s", _TIME, "lower"),
    ("trace.coverage", _RATIO, "higher"),
    ("trace.overhead_pct", "%", "lower"),
)

#: Whether a counter repeats exactly across processes and seeds
#: (``exact``) or drifts with iteration order over identity-hashed
#: objects (``order-dependent``).  Only exact counters back count claims;
#: ``--aa`` checks the exact ones between its two sets.
COUNTER_LABELS = {
    "minijava.parse_calls": "exact",
    "minijava.source_kb": "exact",
    "ir.instructions": "exact",
    "featuremodel.configs": "exact",
    "ide.jump_functions": "exact",
    "ide.flow_applications": "exact",
    "ide.value_batch_joins": "exact",
    "ide.edge_compositions": "order-dependent",
    "ide.compose_hit_ratio": "order-dependent",
    "ide.join_hit_ratio": "order-dependent",
    "bdd.nodes": "order-dependent",
    "bdd.apply_calls": "order-dependent",
    "bdd.apply_hit_ratio": "order-dependent",
    "core.lines_rendered": "exact",
    "core.render_distinct_ratio": "exact",
    "core.renders_per_job": "exact",
    "service.store_puts": "exact",
    "service.store_put_mb": "order-dependent",
    "service.store_gets": "exact",
    "service.store_hit_ratio": "exact",
    "ide.summaries_reused": "exact",
    "ide.summaries_recomputed": "exact",
    "ide.summaries_invalidated": "exact",
    "ide.summary_reuse_ratio": "exact",
    "cli.findings": "exact",
    "ifds.path_edges": "exact",
    "ifds.flow_applications": "exact",
    "obs.publish_calls": "exact",
}

#: Layer self-time rows that, with trace.unattributed_s, sum to trace.pass_s.
LAYER_ROWS = tuple(
    name
    for name, unit, _ in PER_LAYER
    if unit == _TIME
    and name not in ("ide.phase1_s", "ide.phase2_s", "featuremodel.configs_s")
    and not name.startswith("trace.")
) + ("trace.bookkeeping_s",)


class BenchError(RuntimeError):
    """The benchmark could not run (no program, a process failed)."""


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------


@contextlib.contextmanager
def scratch():
    """A fresh temp dir inside the checkout, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def pinned_env(tmp: Path) -> Dict[str, str]:
    """The workload processes' environment: no ``SPLLIFT_*`` settings,
    no bytecode cache, every temp and cache file under ``tmp``."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("SPLLIFT_") and key != "PYTHONPATH"
    }
    env.update(
        PYTHONDONTWRITEBYTECODE="1",
        TMPDIR=str(tmp),
        XDG_CACHE_HOME=str(tmp / "cache"),
    )
    return env


def _child(argv: List[str], env: Dict[str, str], out: Path, deadline: Optional[float]) -> dict:
    command = [sys.executable, str(HERE / "child.py"), *argv, "--out", str(out)]
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        code = subprocess.run(command, env=env, stdout=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s") from None
    if code != 0:
        raise BenchError(f"workload process exited {code}: {' '.join(argv)}")
    return json.loads(out.read_text())


def expected_outputs(
    workload: str, seed: int, tmp: Path, env: Dict[str, str], deadline: Optional[float]
) -> Dict[str, str]:
    """The committed expected outputs for the seed, else computed now
    through the reference paths (``reference.py``)."""
    committed = EXPECTED / f"seed-{seed}.json"
    if committed.is_file():
        return json.loads(committed.read_text())[workload]
    return reference_outputs(workload, seed, tmp, env, deadline)


def reference_outputs(
    workload: str, seed: int, tmp: Path, env: Dict[str, str], deadline: Optional[float]
) -> Dict[str, str]:
    workdir = tmp / f"reference-{workload}"
    workdir.mkdir()
    argv = ["--workload", workload, "--seed", str(seed), "--mode", "reference", "--workdir", str(workdir)]
    return _child(argv, env, workdir / "expected.json", deadline)


def run_workload(
    workload: str,
    seed: int,
    seconds: int,
    trace: int,
    passes: Optional[int] = None,
    tamper: bool = False,
) -> dict:
    """Run one workload; returns the summary ``report`` renders."""
    if passes is None:
        passes = max(MIN_PASSES[workload], round(PASSES_AT_24S * seconds / 24))
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    # A traced run runs passes - 1 untraced passes (at least one), the
    # baseline for trace.overhead_pct, then one traced pass.
    plan = [False] * (max(1, passes - 1) if trace else passes) + [True] * trace
    with scratch() as tmp:
        env = pinned_env(tmp)
        for index, traced in enumerate(plan):
            workdir = tmp / f"process-{index}"
            workdir.mkdir()
            argv = [
                "--workload", workload, "--seed", str(seed),
                "--trace", str(int(traced)), "--workdir", str(workdir),
            ]
            if traced:
                traces = WORK / "traces"
                traces.mkdir(parents=True, exist_ok=True)
                argv += ["--trace-file", str(traces / f"{workload}-seed{seed}.json")]
            results.append(_child(argv, env, workdir / "result.json", deadline))
        expected = dict(expected_outputs(workload, seed, tmp, env, deadline))
    all_passes = [p for result in results for p in result["passes"]]
    if tamper:
        first = all_passes[0]["ops"][0][0]
        expected[first] = "tampered:" + str(expected.get(first))
    ops = [op for p in all_passes for op in p["ops"]]
    failures = [
        f"{op_id}: {error or f'output {fingerprint!r} != expected {expected.get(op_id)!r}'}"
        for op_id, _, fingerprint, error in ops
        if error is not None or fingerprint != expected.get(op_id)
    ]
    # An expected output a pass did not produce is a failed op too.
    missing = [
        f"{op_id}: no output"
        for p in all_passes
        for op_id in sorted(set(expected) - {op[0] for op in p["ops"]})
    ]
    failures += missing
    untraced = [result for result in results if "setup_s" in result]
    timed = [p for result in untraced for p in result["passes"]]
    latencies_ms = [1000 * op[1] for p in timed for op in p["ops"]]
    percentile, tail_ms = tail(latencies_ms)
    summary = {
        "workload": workload,
        "seed": seed,
        "passes": len(timed),
        "ops_per_pass": len(timed[0]["ops"]),
        "attempted": len(ops) + len(missing),
        "failed": len(failures),
        "failures": failures,
        "tail_percentile": percentile,
        "wall_s": statistics.mean(p["wall_s"] for p in timed),
        "probes": [d for r in untraced for d in r["probes"]],
        "metrics": {
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "pass_s": statistics.mean(p["pass_s"] for p in timed),
            "op_p50_ms": statistics.median(latencies_ms),
            "op_tail_ms": tail_ms,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        },
    }
    if trace:
        # The traced pass is unprobed, in wall seconds: compare it with
        # the untraced passes' wall time less their probes.
        summary["layers"] = next(dict(p["layers"]) for p in all_passes if "layers" in p)
        summary["layers"]["trace.overhead_pct"] = 100 * (
            summary["layers"]["trace.pass_s"] / summary["wall_s"] - 1
        )
    return summary


def tail(values: List[float]):
    """(q, value): the highest whole percentile q with at least ten
    values beyond it, by nearest rank."""
    count = len(values)
    q = math.floor(100 * (1 - 10 / count)) if count > 10 else 0
    rank = max(1, math.ceil(q / 100 * count))
    return q, sorted(values)[rank - 1]


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


def environment_line(summary: dict) -> str:
    return (
        f"perfbench {summary['workload']}: seed={summary['seed']} "
        f"python={platform.python_version()} nproc={os.cpu_count()} "
        f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'random')} "
        f"passes={summary['passes']} ops/pass={summary['ops_per_pass']}"
    )


def report(summary: dict, trace: int) -> dict:
    """Print the human-readable report; return the result JSON object."""
    print(environment_line(summary))
    metrics = summary["metrics"]
    passes = summary["passes"]
    ops = passes * summary["ops_per_pass"]
    samples = {
        "setup_s": f"median of {passes} workload processes",
        "pass_s": f"mean of {passes} passes",
        "op_p50_ms": f"p50 of {ops} ops",
        "op_tail_ms": f"p{summary['tail_percentile']} of {ops} ops",
        "peak_rss_mb": f"median of {passes} workload processes",
    }
    for name, unit, _, bound in END_TO_END:
        print(f"  {name:<14}{metrics[name]:>14.4f} {unit:<3} {samples[name]} (bound {bound:.0%})")
    probes = summary["probes"]
    print(f"  {'(wall pass)':<14}{summary['wall_s']:>14.4f} s   mean of {passes} passes in wall seconds, "
          f"less the speed probes' time")
    print(f"  timings above are normalized (clock.py): {len(probes)} speed probes, median "
          f"{1000 * statistics.median(probes):.4f} ms, reference {1000 * clock.REFERENCE_PROBE_S:.4f} ms")
    ratio = summary["failed"] / summary["attempted"]
    print(f"  {'fail_ratio':<14}{ratio:>14.4f}     {summary['failed']} failed of {summary['attempted']} ops")
    for failure in summary["failures"][:5]:
        print(f"    FAILED {failure}")
    result_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    if trace:
        result_metrics = trace_report(summary["layers"])
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": result_metrics,
    }


def trace_report(layers: Dict[str, float]) -> dict:
    units = {name: unit for name, unit, _ in PER_LAYER}
    pass_s = layers["trace.pass_s"]
    print(f"  traced pass {pass_s:.4f} s; layer self times:")
    for name in LAYER_ROWS:
        print(f"    {name:<26}{layers[name]:>10.4f} s {100 * layers[name] / pass_s:6.1f}%")
    print(f"    {'trace.unattributed_s':<26}{layers['trace.unattributed_s']:>10.4f} s "
          f"{100 * layers['trace.unattributed_s'] / pass_s:6.1f}%")
    print(f"    {'ide.phase1_s (in solve)':<26}{layers['ide.phase1_s']:>10.4f} s")
    print(f"    {'ide.phase2_s (in solve)':<26}{layers['ide.phase2_s']:>10.4f} s")
    print(f"    {'featuremodel.configs_s':<26}{layers['featuremodel.configs_s']:>10.4f} s (setup)")
    print(f"  trace.coverage {layers['trace.coverage']:.4f}  trace.overhead_pct {layers['trace.overhead_pct']:.2f}%")
    print("  counters:")
    for name, label in COUNTER_LABELS.items():
        print(f"    {name:<28}{layers[name]:>16.6g} {units[name]:<6} {label}")
    return {name: {"value": layers[name], "unit": units[name]} for name, _, _ in PER_LAYER}


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------


def regenerate(workloads: List[str], seed: int) -> int:
    """Write expected/seed-<seed>.json through the reference paths."""
    path = EXPECTED / f"seed-{seed}.json"
    document = json.loads(path.read_text()) if path.is_file() else {}
    with scratch() as tmp:
        env = pinned_env(tmp)
        for workload in workloads:
            document[workload] = reference_outputs(workload, seed, tmp, env, None)
            print(f"{workload}: {len(document[workload])} expected outputs")
    EXPECTED.mkdir(exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def self_test(workloads: List[str]) -> int:
    """One pass per workload at the default seed against the committed
    outputs with one entry tampered: exactly that op must fail."""
    ok = True
    benchmark = ROOT / "BENCHMARK.json"
    if benchmark.is_file():
        document = json.loads(benchmark.read_text())
        declared = (
            [workload["name"] for workload in document["workloads"]],
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in document["end_to_end"]],
            [(m["name"], m["unit"], m["better"]) for m in document["per_layer"]],
        )
        matches = declared == (list(WORKLOADS), list(END_TO_END), list(PER_LAYER))
        ok &= matches
        print(f"self-test BENCHMARK.json declares run.py's workloads and metrics: {'ok' if matches else 'FAILED'}")
    for workload in workloads:
        summary = run_workload(workload, 0, 0, 0, passes=1, tamper=True)
        tampered = summary["failures"][:1]
        passed = summary["failed"] == 1 and "tampered:" in tampered[0]
        ok &= passed
        print(f"self-test {workload}: {summary['failed']} of {summary['attempted']} ops failed "
              f"(fail_ratio {summary['failed'] / summary['attempted']:.4f}) -> {'ok' if passed else 'FAILED'}")
        for failure in summary["failures"][:3]:
            print(f"    {failure}")
    return 0 if ok else 1


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def aa_report(workloads: List[str], seconds: int) -> int:
    """Two interleaved sets of ``AA_RUNS`` runs of the same code (seeds
    1..AA_RUNS and AA_RUNS+1..2*AA_RUNS), then one traced run per set.
    Fails when a shift between the sets' medians, or the spread of all
    2*AA_RUNS values, exceeds the metric's bound, or when an exact
    counter differs between the traced runs."""
    ok = True
    runs = AA_RUNS
    for workload in workloads:
        sets = {"A": [], "B": []}
        for index in range(1, runs + 1):
            for name, seed in (("A", index), ("B", runs + index)):
                summary = run_workload(workload, seed, seconds, 0)
                ok &= summary["failed"] == 0
                sets[name].append(summary["metrics"])
                print(f"  {workload} set {name} seed {seed}: "
                      + " ".join(f"{k}={v:.4f}" for k, v in summary["metrics"].items()), flush=True)
        print(f"A/A {workload}: {runs} runs per set, {seconds} s per run")
        print(f"  {'metric':<12} {'A q1':>10} {'A med':>10} {'A q3':>10} {'B q1':>10} {'B med':>10} "
              f"{'B q3':>10} {'B-A':>8} {'spread':>8} {'bound':>6}")
        for name, _, _, bound in END_TO_END:
            a = _quartiles([m[name] for m in sets["A"]])
            b = _quartiles([m[name] for m in sets["B"]])
            both = _quartiles([m[name] for m in sets["A"] + sets["B"]])
            shift = (b[1] - a[1]) / a[1]
            spread = (both[2] - both[0]) / both[1]
            steady = abs(shift) <= bound and spread <= bound
            ok &= steady
            print(f"  {name:<12} {a[0]:>10.4f} {a[1]:>10.4f} {a[2]:>10.4f} {b[0]:>10.4f} {b[1]:>10.4f} "
                  f"{b[2]:>10.4f} {shift:>+8.1%} {spread:>8.1%} {bound:>6.0%} {'ok' if steady else 'OUT'}")
        # Same seed in both traced runs: edit targets, and so the edit
        # loop's counts, change with the seed.
        traced = [run_workload(workload, 1, seconds, 1)["layers"] for _ in sets]
        drift = [
            name for name, label in COUNTER_LABELS.items() if traced[0][name] != traced[1][name]
        ]
        exact_drift = [name for name in drift if COUNTER_LABELS[name] == "exact"]
        ok &= not exact_drift
        print(f"  exact counters identical across sets: {'yes' if not exact_drift else 'NO: ' + ', '.join(exact_drift)}")
        print(f"  order-dependent counters that moved: {', '.join(drift) or 'none'}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--regen", action="store_true", help="write expected/seed-SEED.json")
    mode.add_argument("--self-test", action="store_true", help="check that a wrong output fails")
    mode.add_argument("--aa", action="store_true", help="A/A steadiness report")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running workload process is
    # killed and waited for and the temp dir is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads = args.workload or list(WORKLOADS)
    try:
        if args.regen:
            return regenerate(workloads, args.seed)
        if args.self_test:
            return self_test(workloads)
        if args.aa:
            return aa_report(workloads, args.seconds)
        if len(workloads) != 1:
            parser.error("a run takes exactly one --workload")
        summary = run_workload(workloads[0], args.seed, args.seconds, args.trace)
        result = report(summary, args.trace)
    except BenchError as error:
        print(f"perfbench: error: {error}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
