#!/usr/bin/env python
"""CI smoke for incremental re-analysis through a shared summary store.

One subject, all three paper analyses, any store backend::

    PYTHONPATH=src python scripts/incremental_smoke.py --store sqlite:///tmp/inc.db
    PYTHONPATH=src python scripts/incremental_smoke.py --store http://127.0.0.1:8766

Flow: (1) cold solves of the pristine subject populate the store with
method summaries; (2) a scripted one-method edit (``repro.spl.edits``);
(3) cold solves of the edited subject establish the reference digests;
(4) warm incremental solves of the same edited subject through the
store.  The gate: warm digests bit-identical to cold, ``summaries_reused
> 0`` for every analysis, and reuse ratio ≥ 0.8.

``--metrics OUT`` writes a ``spllift-metrics/v1`` snapshot of the *warm
phase only* (the registry is reset between phases), so
``spllift obs diff --only 'ide.solver.summaries_*'`` can pin
the reuse counters against a committed baseline — they are a
deterministic property of the fixed point, not of timing.
"""

from __future__ import annotations

import argparse
import sys

from repro.analyses import PAPER_ANALYSES
from repro.core import SPLLift
from repro.ide.summaries import summary_cache_for
from repro.obs import runtime as obs
from repro.service import open_store
from repro.spl.benchmarks import paper_subjects
from repro.spl.edits import edited_product_line

SUBJECTS = {
    name.split("-")[0].lower(): (name, builder)
    for name, builder in paper_subjects()
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--store",
        required=True,
        help="summary store spec: a path, sqlite://file.db, or http://host:port",
    )
    parser.add_argument(
        "--subject",
        default="gpl",
        choices=sorted(SUBJECTS),
        help="paper subject to solve (default: gpl)",
    )
    parser.add_argument(
        "--metrics",
        help="write a spllift-metrics/v1 snapshot of the warm phase here",
    )
    args = parser.parse_args(argv)

    subject_name, builder = SUBJECTS[args.subject]
    store = open_store(args.store)

    def lift(product_line, analysis_cls):
        return SPLLift(
            analysis_cls(product_line.icfg),
            feature_model=product_line.feature_model,
        )

    # Phase 1: populate the store from the pristine subject.
    for analysis_name, analysis_cls in PAPER_ANALYSES:
        solver = lift(builder(), analysis_cls)
        solver.solve(summaries=summary_cache_for(solver, store))

    # Phase 2+3: scripted edit, then cold reference digests.
    edited, target, dirty = edited_product_line(builder())
    print(f"{subject_name}: edited {target} (dirty closure: {dirty} methods)")
    cold_digests = {}
    for analysis_name, analysis_cls in PAPER_ANALYSES:
        fresh_edit, _, _ = edited_product_line(builder())
        cold_digests[analysis_name] = (
            lift(fresh_edit, analysis_cls).solve().result_digest()
        )

    # Phase 4: warm incremental solves, counters isolated to this phase.
    obs.reset()
    failures = 0
    for analysis_name, analysis_cls in PAPER_ANALYSES:
        fresh_edit, _, _ = edited_product_line(builder())
        solver = lift(fresh_edit, analysis_cls)
        warm = solver.solve(summaries=summary_cache_for(solver, store))
        stats = warm.stats
        reused = stats.get("summaries_reused", 0)
        recomputed = stats.get("summaries_recomputed", 0)
        ratio = reused / max(1, reused + recomputed)
        ok = warm.result_digest() == cold_digests[analysis_name]
        print(
            f"  {analysis_name}: digest "
            + ("identical" if ok else "MISMATCH")
            + f", {reused} reused / {recomputed} recomputed "
            f"/ {stats.get('summaries_invalidated', 0)} invalidated "
            f"(ratio {ratio:.2f})"
        )
        if not ok:
            failures += 1
        if reused == 0:
            failures += 1
            print(f"  {analysis_name}: FAIL — no summaries reused")
        if ratio < 0.8:
            failures += 1
            print(f"  {analysis_name}: FAIL — reuse ratio {ratio:.2f} < 0.8")

    if args.metrics:  # the warm phase's metrics
        obs.write_outputs(metrics_path=args.metrics, stream=sys.stdout)

    print(
        "incremental smoke: "
        + ("OK" if not failures else f"{failures} failure(s)")
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
