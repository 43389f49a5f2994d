#!/usr/bin/env python
"""Diff two ``--metrics`` JSON snapshots and fail on counter drift.

``perfbench/run.py`` tracks wall time; this script gates the *work*
counters behind it — jump-function blowup, BDD node or apply-miss
explosions show up here even when a fast machine hides them from the
timing numbers.  CI feeds it the counter snapshot of
``benchmarks/bench_solver.py`` and the ``--metrics`` reports of the
fleet and incremental smoke runs.

Counters and gauges present in both snapshots are compared by relative
drift ``(current - baseline) / baseline``; histograms by their
``count``.  A comparison fails when drift exceeds the threshold in
either direction (a large unexplained *drop* usually means work was
silently skipped).  Thresholds are relative fractions: ``0.1`` = ±10%.

Usage::

    python scripts/compare_metrics.py baseline.json current.json
    python scripts/compare_metrics.py base.json cur.json --threshold 0.05
    python scripts/compare_metrics.py base.json cur.json \\
        --threshold-for 'bdd.*=0.5' --threshold-for 'ide.jumps=0.0' \\
        --only 'bdd.*' --ignore '*.wall_us'

Per-name thresholds are fnmatch patterns; the most specific match wins
(longest pattern, ties broken in favor of later flags).  Keys present
in only one snapshot are reported (marked ``MISSING``, printed even
under ``--quiet``, and counted separately in the verdict) and fail the
comparison unless ``--allow-missing`` is given.  Exit status 0 when
within thresholds, 1 on drift or missing keys, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

try:
    from repro.obs.regress import (
        compare,
        load_snapshot,
        parse_threshold_overrides,
    )
except ImportError:  # CI invokes this script without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.obs.regress import (
        compare,
        load_snapshot,
        parse_threshold_overrides,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline --metrics snapshot")
    parser.add_argument("current", help="current --metrics snapshot")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.1,
        help="default relative drift threshold (fraction; default 0.1 = ±10%%)",
    )
    parser.add_argument(
        "--threshold-for",
        action="append",
        default=[],
        metavar="PATTERN=FRACTION",
        help="per-counter threshold override (fnmatch pattern; repeatable)",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="PATTERN",
        help="compare only matching names (repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="PATTERN",
        help="skip matching names (repeatable)",
    )
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="report but do not fail on keys present in only one snapshot",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print only violations and the verdict line",
    )
    args = parser.parse_args(argv)

    try:
        overrides = parse_threshold_overrides(args.threshold_for)
        baseline = load_snapshot(args.baseline)
        current = load_snapshot(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"compare_metrics: {error}", file=sys.stderr)
        return 2

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
        f"compare_metrics: {scope}: "
        + ("OK" if not violations else f"{len(violations)} violation(s)")
    )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
