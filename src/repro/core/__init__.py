"""SPLLIFT: the paper's contribution — lifting IFDS analyses to SPLs."""

from repro.core.emergent import (
    EmergentInterface,
    FeatureDependency,
    compute_emergent_interface,
)
from repro.core.icfg import LiftedICFG
from repro.core.lifting import FM_MODES, ConstraintEdge, LiftedProblem
from repro.core.solver import ResultLines, SPLLift, SPLLiftResults

__all__ = [
    "LiftedICFG",
    "LiftedProblem",
    "ConstraintEdge",
    "FM_MODES",
    "SPLLift",
    "SPLLiftResults",
    "ResultLines",
    "EmergentInterface",
    "FeatureDependency",
    "compute_emergent_interface",
]
