"""One workload process: set up, run one pass, write a result file.

``run.py`` starts this script in fresh processes with a pinned
environment; it is not meant to be run by hand.  ``setup_s`` is measured
from the first line below, before ``repro`` is imported, to the first
timed op.  Every time is in normalized seconds (``clock.py``): the
host's speed is probed from the first line on, and each stretch of wall
time is scaled by it.  With ``--trace 1`` the pass is traced (see
``tracing.py``) and unprobed, so its times are wall seconds.
``--mode reference`` computes the expected outputs instead, through
paths the timed ops do not use (see ``reference.py``).
"""

import time

STARTED = time.perf_counter()

import clock  # noqa: E402

CLOCK = clock.NormalClock()
CLOCK.arm()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def run_pass(workload, recorder=None):
    """One closed-loop pass with one client.  Returns the wall intervals
    of its calls and its output rows, each [op id, began, ended, output
    fingerprint, error or None]; the benchmark's output checks between
    calls are outside every interval."""
    workload.begin_pass()
    calls, rows = [], []
    for op_id, call in workload.ops():
        if recorder is not None:
            recorder.op = op_id
        began = time.perf_counter()
        try:
            outcome = call()
        except Exception as error:  # an op that raises is a failed op, not a crash
            ended = time.perf_counter()
            calls.append((began, ended))
            traceback.print_exc(file=sys.stderr)
            rows += workload.failed(op_id, began, ended, f"{type(error).__name__}: {error}")
            continue
        ended = time.perf_counter()
        calls.append((began, ended))
        new_rows, counts = workload.rows(op_id, began, ended, outcome)
        rows += new_rows
        if recorder is not None:
            recorder.counts.update(counts)
    workload.end_pass()
    return calls, rows


def timed(calls, rows) -> dict:
    """A pass in normalized seconds: ``pass_s``, the sum of its calls;
    ``wall_s``, the same calls' wall time less the probes'; and its ops
    as [op id, latency, fingerprint, error]."""
    return {
        "pass_s": sum(CLOCK.seconds(began, ended) for began, ended in calls),
        "wall_s": sum(ended - began - CLOCK.probe_seconds(began, ended) for began, ended in calls),
        "ops": [[op_id, CLOCK.seconds(began, ended), out, error] for op_id, began, ended, out, error in rows],
    }


def traced_pass(workload, trace_file=None) -> dict:
    """One pass with every layer boundary wrapped and the program's
    tracer armed; returns the pass with its per-layer metrics."""
    import tracing
    from repro.obs import runtime as obs
    from repro.obs.trace import write_trace

    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        obs.enable_tracing()
        result = timed(*run_pass(workload, recorder))
        events = obs.tracer().drain()
        obs.disable_tracing()
    layers = tracing.layer_metrics(recorder, events, result["pass_s"])
    layers["featuremodel.configs_s"] = getattr(workload, "configs_s", 0.0)
    layers["featuremodel.configs"] = getattr(workload, "configurations", 0)
    if trace_file:
        write_trace(tracing.chrome_events(recorder) + events, trace_file, run_id=obs.run_id())
    result["layers"] = layers
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "reference"), default="run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", help="write the traced pass's spans here")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    global CLOCK
    if args.trace or args.mode == "reference":
        CLOCK.disarm()
        CLOCK = clock.NormalClock()  # unprobed: a traced pass is timed in wall seconds

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    workdir = Path(args.workdir)

    if args.mode == "reference":
        import reference

        result = reference.compute(args.workload, args.seed, workdir)
        Path(args.out).write_text(json.dumps(result))
        return 0

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    if args.trace:
        result = {"passes": [traced_pass(workload, args.trace_file)]}
    else:
        calls, rows = run_pass(workload)
        CLOCK.disarm()
        result = {
            "passes": [timed(calls, rows)],
            "setup_s": CLOCK.seconds(STARTED, calls[0][0]),
            "probes": [end - start for start, end in zip(CLOCK.starts, CLOCK.ends)],
        }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        CLOCK.disarm()  # else a probe due at exit kills the process with SIGALRM
    sys.exit(code)
