"""Command-line entry point regenerating the paper's tables.

Usage::

    python -m repro.experiments table1
    python -m repro.experiments table2 [--cutoff SECONDS]
    python -m repro.experiments table3
    python -m repro.experiments qualitative
    python -m repro.experiments variance
    python -m repro.experiments scaling
    python -m repro.experiments all [--cutoff SECONDS]
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.qualitative import render_qualitative, run_qualitative
from repro.experiments.table1 import render_table1, run_table1
from repro.experiments.scaling import render_scaling, run_scaling
from repro.experiments.variance import render_variance, run_variance
from repro.experiments.table2 import render_table2, run_table2
from repro.experiments.table3 import render_table3, run_table3

__all__ = ["main"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the SPLLIFT paper's tables on the "
        "reproduction's benchmark subjects.",
    )
    parser.add_argument(
        "experiment",
        choices=("table1", "table2", "table3", "qualitative", "variance", "scaling", "all"),
        help="which experiment to run",
    )
    parser.add_argument(
        "--cutoff",
        type=float,
        default=60.0,
        help="A2 cutoff in seconds before switching to the estimation "
        "protocol (paper: ten hours; default: 60)",
    )
    parser.add_argument(
        "--cache-dir",
        help="route SPLLIFT runs through the analysis service's result "
        "store: a path, sqlite://file.db, or http://host:port "
        "(warm hits skip the solver)",
    )
    parser.add_argument(
        "--parallel",
        "-j",
        type=int,
        default=None,
        help="fan independent table2/table3 cells over this many worker "
        "processes (0 = all cores; default: $SPLLIFT_PARALLEL, else 1); "
        "results are bit-identical to a sequential campaign",
    )
    parser.add_argument(
        "--engine",
        metavar="ENGINE",
        default=None,
        help="SPLLIFT evaluation engine for table2/table3 cells "
        "(tabulate or datalog; default: tabulate); "
        "result digests are identical either way — timings are the A/B",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a merged Chrome trace_event span trace of the whole "
        "campaign here (opens in Perfetto)",
    )
    parser.add_argument(
        "--metrics",
        dest="metrics_file",
        metavar="FILE",
        help="write the aggregated metrics registry as JSON here",
    )
    args = parser.parse_args(argv)

    from repro.obs import runtime as obs

    if args.engine is not None:
        from repro.datalog import resolve_engine

        try:
            resolve_engine(args.engine)
        except ValueError as error:
            parser.error(str(error))

    if args.trace:
        obs.enable_tracing()

    store = None
    if args.cache_dir:
        from repro.service import open_store

        store = open_store(args.cache_dir)

    if args.experiment in ("table1", "all"):
        print(render_table1(run_table1()))
        print()
    if args.experiment in ("table2", "all"):
        print(
            render_table2(
                run_table2(
                    cutoff_seconds=args.cutoff,
                    store=store,
                    parallel=args.parallel,
                    engine=args.engine,
                )
            )
        )
        print()
    if args.experiment in ("table3", "all"):
        print(
            render_table3(
                run_table3(store=store, parallel=args.parallel, engine=args.engine)
            )
        )
        print()
    if args.experiment in ("qualitative", "all"):
        print(render_qualitative(run_qualitative()))
        print()
    if args.experiment in ("variance", "all"):
        from repro.analyses import ReachingDefinitionsAnalysis, UninitializedVariablesAnalysis
        from repro.spl import gpl_like, mm08_like

        reports = [
            run_variance(mm08_like(), ReachingDefinitionsAnalysis),
            run_variance(gpl_like(), ReachingDefinitionsAnalysis),
            run_variance(gpl_like(), UninitializedVariablesAnalysis),
        ]
        print(render_variance(reports))
        print()
    if args.experiment in ("scaling", "all"):
        from repro.analyses import UninitializedVariablesAnalysis

        print(render_scaling(run_scaling(UninitializedVariablesAnalysis)))
        print()

    obs.write_outputs(args.trace, args.metrics_file)
    if args.trace:
        obs.disable_tracing()
    return 0


if __name__ == "__main__":
    sys.exit(main())
