"""Lifted-Datalog evaluation backend (the ``--engine=datalog`` solver).

Shahin/Chechik ("Lifting Datalog-Based Analyses to SPLs", PAPERS.md)
lift Datalog engines to variability by pairing every tuple with a
feature constraint — exactly SPLLIFT's IDE value domain.  This package
replaces IDE phase I: it compiles a
:class:`~repro.core.lifting.LiftedProblem` into constraint-annotated
relations (``path_edge``/``summary_edge``) plus
normal/call/return/call-to-return flow rules, and evaluates them with a
semi-naive, set-at-a-time fixpoint (:mod:`repro.datalog.engine`).

The resulting ``path_edge`` fixpoint is the same mathematical object as
the tabulation solver's jump functions; it is handed to the IDE
solver's own phase II (:func:`repro.ide.solver.compute_values`), and BDD
constraints are canonical, so both engines render bit-identical
``result_digest()``s — an independent cross-check of phase I on the
heavily optimized tabulation path
(``scripts/check_digest_identity.py --engine datalog``).
"""

from __future__ import annotations

from typing import Optional

from repro.datalog.engine import Relation, Rule, SemiNaiveEvaluator
from repro.datalog.ifds import DatalogSolver

__all__ = [
    "ENGINES",
    "resolve_engine",
    "DatalogSolver",
    "Relation",
    "Rule",
    "SemiNaiveEvaluator",
]

#: The available evaluation engines; ``None`` means ``tabulate``.
ENGINES = ("tabulate", "datalog")


def resolve_engine(engine: Optional[str]) -> str:
    """Check an engine name (``None`` → ``tabulate``)."""
    if engine is None:
        return "tabulate"
    if engine not in ENGINES:
        raise ValueError(
            f"engine must be one of {'/'.join(ENGINES)}, got {engine!r}"
        )
    return engine
