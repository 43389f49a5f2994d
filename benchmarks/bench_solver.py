"""Deterministic work-counter snapshot for CI's counter gates.

Runs the rows whose counters ``spllift obs diff`` gates against
``benchmarks/BASELINE_bench_stats.json``:

- ``engine/datalog/GPL-like/possible_types`` — one lifted solve on the
  semi-naive Datalog engine, whose rule/iteration/tuple counters are
  set-at-a-time and hence exact, as are the ``value_*`` counters of the
  IDE phase II it shares with tabulation (gated at threshold 0, with
  the seed pinned);
- ``engine/tabulate/GPL-like/reaching_definitions`` — one default lifted
  solve on the IDE tabulation engine.  Facts and handles hash without
  object addresses, so its counters are the same in every process at a
  fixed ``PYTHONHASHSEED`` (gated at threshold 0 with the seed pinned;
  string hashes, and with them the work, still follow the seed);
- ``micro/bdd_kernel/*`` — four BDD kernel workloads (a deep
  conjunction chain, unique-table churn, an apply storm, wide model
  counting) whose node/apply counters are gated at ±2%.

It writes their integer counters as one ``spllift-metrics/v1`` snapshot
(``row.counter -> value``) and times nothing: wall times, with their
A/A spread, come from ``perfbench/run.py`` (see ``BENCHMARK.json``).
Run it as::

    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/bench_solver.py --stats-out bench_stats.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.analyses import PossibleTypesAnalysis, ReachingDefinitionsAnalysis
from repro.bdd import BDDManager
from repro.core import SPLLift
from repro.spl.benchmarks import gpl_like


def run_datalog_possible_types() -> Dict[str, object]:
    """One lifted possible-types solve of GPL-like on the Datalog engine."""
    product_line = gpl_like()
    return SPLLift(
        PossibleTypesAnalysis(product_line.icfg),
        feature_model=product_line.feature_model,
    ).solve(engine="datalog").stats


def run_tabulate_reaching_definitions() -> Dict[str, object]:
    """One default lifted reaching-definitions solve of GPL-like."""
    product_line = gpl_like()
    return SPLLift(
        ReachingDefinitionsAnalysis(product_line.icfg),
        feature_model=product_line.feature_model,
    ).solve().stats


def run_deep_chain() -> Dict[str, object]:
    """A 5,000-variable conjunction chain plus node/model counting — the
    workload that overflowed the recursion limit before the iterative
    apply kernel."""
    manager = BDDManager()
    chain = manager.and_all(manager.var(f"v{i:04d}") for i in range(5000))
    stats = manager.cache_stats()
    return {
        "chain_nodes": manager.node_count(chain),
        "model_count": manager.satcount(chain),
        "bdd_nodes": stats["unique_entries"],
        "apply_calls": stats["apply_calls"],
    }


def run_unique_churn() -> Dict[str, object]:
    """A 48-variable threshold function ("at least 16 of 48") built by
    dynamic programming: ~1,300 applies whose intermediates intern and
    abandon tens of thousands of distinct nodes."""
    manager = BDDManager()
    xs = [manager.var(f"u{i:02d}") for i in range(48)]
    threshold = 16
    # counts[j] = BDD for "at least j of the variables seen so far".
    counts = [manager.true] + [manager.false] * threshold
    for x in xs:
        for j in range(threshold, 0, -1):
            counts[j] = manager.or_(counts[j], manager.and_(x, counts[j - 1]))
    stats = manager.cache_stats()
    return {
        "result_nodes": manager.node_count(counts[threshold]),
        "bdd_nodes": stats["unique_entries"],
        "total_nodes": stats["nodes"],
        "apply_calls": stats["apply_calls"],
        "apply_cache_misses": stats["apply_cache_misses"],
    }


def _or_of_cubes(
    manager: BDDManager, prefix: str, width: int, cubes: int, shift: int
):
    """OR together ``cubes`` pseudo-random cubes over ``width`` variables
    (multiplicative-hash literal selection, no RNG state)."""
    xs = [manager.var(f"{prefix}{i:02d}") for i in range(width)]
    mask = (1 << width) - 1
    acc = manager.false
    for k in range(cubes):
        bits = (k * 0x9E3779B1) & mask
        cube = manager.true
        for i in range(width):
            if bits >> i & 1:
                literal = (
                    xs[i]
                    if (bits >> ((i + shift) % width)) & 1
                    else manager.not_(xs[i])
                )
                cube = manager.and_(cube, literal)
        acc = manager.or_(acc, cube)
    return acc


def run_apply_storm() -> Dict[str, object]:
    """1,500 cubes over 14 variables OR-ed into one accumulator: a
    cache-hit-heavy apply mix."""
    manager = BDDManager()
    acc = _or_of_cubes(manager, "s", 14, 1500, shift=7)
    stats = manager.cache_stats()
    return {
        "result_nodes": manager.node_count(acc),
        "bdd_nodes": stats["unique_entries"],
        "apply_calls": stats["apply_calls"],
        "apply_cache_hits": stats["apply_cache_hits"],
        "apply_cache_misses": stats["apply_cache_misses"],
    }


def run_satcount_wide() -> Dict[str, object]:
    """Repeated satcount over a disjunction of 500 cubes over 20
    variables; each round declares one more variable, which invalidates
    the count memo, so every round pays the full DAG walk."""
    manager = BDDManager()
    acc = _or_of_cubes(manager, "w", 20, 500, shift=11)
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


ROWS: Tuple[Tuple[str, Callable[[], Dict[str, object]]], ...] = (
    ("engine/datalog/GPL-like/possible_types", run_datalog_possible_types),
    (
        "engine/tabulate/GPL-like/reaching_definitions",
        run_tabulate_reaching_definitions,
    ),
    ("micro/bdd_kernel/deep_chain_5000", run_deep_chain),
    ("micro/bdd_kernel/unique_churn", run_unique_churn),
    ("micro/bdd_kernel/apply_storm", run_apply_storm),
    ("micro/bdd_kernel/satcount_wide", run_satcount_wide),
)


def _git_revision() -> Optional[str]:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            or None
        )
    except (OSError, subprocess.CalledProcessError):
        return None


def collect_counters() -> Dict[str, int]:
    """Run every row; its integer stats become ``row.stat`` counters."""
    return {
        f"{name}.{stat}": value
        for name, run in ROWS
        for stat, value in sorted(run().items())
        if isinstance(value, int) and not isinstance(value, bool)
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--stats-out",
        type=Path,
        required=True,
        help="where to write the spllift-metrics/v1 counter snapshot "
        "that spllift obs diff reads",
    )
    args = parser.parse_args(argv)
    snapshot = {
        "schema": "spllift-metrics/v1",
        "source": "bench_solver",
        "git_revision": _git_revision(),
        "metrics": {
            "counters": collect_counters(),
            "gauges": {},
            "histograms": {},
        },
    }
    args.stats_out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.stats_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
