"""Expected op outputs, computed through paths the timed ops do not use.

- ``campaign``: each job solved with the Datalog engine
  (``engine="datalog"``), outside the batch service and its store;
- ``a2_sweep``: the lifted SPLLIFT result restricted to each
  configuration, the two-way RQ1 check of ``tests/test_rq1_crosscheck.py``
  in digest form: the expected A2 facts at a statement are exactly the
  facts whose lifted constraint is satisfiable together with the
  configuration;
- ``edit_loop``: a cold ``spllift analyze`` of each edit, without
  ``--incremental-cache``.

``run.py --regen`` writes these for any seed; ``expected/seed-0.json``
holds them for the default seed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

import workloads
from repro.core.solver import SPLLift
from repro.ifds.problem import ZERO
from repro.service.jobs import resolve_analysis
from repro.spl.product_line import ProductLine


def campaign(seed: int, workdir: Path) -> Dict[str, str]:
    expected = {}
    for job in workloads.Campaign(seed, workdir).jobs:
        product_line = ProductLine(
            name=job.label, source=job.source, feature_model=job.feature_model(), entry=job.entry
        )
        results = SPLLift(
            resolve_analysis(job.analysis)(product_line.icfg),
            feature_model=product_line.feature_model,
            fm_mode=job.fm_mode,
        ).solve(engine="datalog")
        expected[workloads.Campaign.key(job)] = results.result_digest()
    return expected


def a2_sweep(seed: int, workdir: Path) -> Dict[str, str]:
    sweep = workloads.A2Sweep(seed, workdir)
    expected = {}
    line_hash: Dict[tuple, int] = {}
    for group, inner, configurations, product_line in sweep.groups:
        # A fresh instance of the same analysis on the same ICFG: the
        # timed ops' instance is never solved here.
        analysis = type(inner)(inner.icfg)
        results = SPLLift(analysis, feature_model=product_line.feature_model).solve()
        system = results.system
        facts = [
            (statement, fact, constraint)
            for (statement, fact), constraint in results.items()
            if fact is not ZERO and not constraint.is_false
        ]
        features = product_line.features_reachable
        for configuration in configurations:
            cube = system.and_all(
                system.var(name) if name in configuration else ~system.var(name)
                for name in features
            )
            holds: Dict[object, bool] = {}
            pairs = []
            for statement, fact, constraint in facts:
                allowed = holds.get(constraint)
                if allowed is None:
                    allowed = holds[constraint] = not (constraint & cube).is_false
                if allowed:
                    pairs.append((statement, fact))
            expected[sweep.key(group, configuration)] = workloads.a2_digest(
                pairs, sweep.prefix, line_hash
            )
    return expected


def edit_loop(seed: int, workdir: Path) -> Dict[str, str]:
    loop = workloads.EditLoop(seed, workdir, populate=False)
    expected = {}
    for key, argv in loop.inputs:
        expected[key] = workloads.edit_fingerprint(*workloads.analyze(argv))
    return expected


def compute(workload: str, seed: int, workdir: Path) -> Dict[str, str]:
    return {"campaign": campaign, "a2_sweep": a2_sweep, "edit_loop": edit_loop}[workload](seed, workdir)
