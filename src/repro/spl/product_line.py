"""A software product line: source, feature model, entry point.

Bundles everything the analyses and the experiment harness need, with
cached parsing/lowering so repeated analyses share one IR (and therefore
one set of statement identities).  A product line built with the IR and
ICFG of another over the same source and entry (``_ir=``, ``_icfg=``;
the jobs of an inline batch, :func:`repro.service.worker.shared_frontend`)
shares them, and parses its source only if its :attr:`~ProductLine.ast`
is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, Optional, Tuple

from repro.constraints.bddsystem import BddConstraintSystem
from repro.featuremodel.configurations import (
    model_constraint,
    project_onto,
)
from repro.featuremodel.model import FeatureModel
from repro.ir.icfg import ICFG
from repro.ir.lowering import lower_program
from repro.ir.program import IRProgram
from repro.minijava.ast import Program
from repro.minijava.parser import parse_program
from repro.minijava.preprocessor import annotated_features

__all__ = ["ProductLine"]


@dataclass
class ProductLine:
    """A MiniJava product line plus its feature model."""

    name: str
    source: str
    feature_model: FeatureModel = field(default_factory=FeatureModel)
    entry: str = "Main.main"
    _ast: Optional[Program] = field(default=None, repr=False)
    _ir: Optional[IRProgram] = field(default=None, repr=False)
    _icfg: Optional[ICFG] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Cached pipeline stages
    # ------------------------------------------------------------------

    @property
    def ast(self) -> Program:
        """The parsed (unpreprocessed) product line."""
        if self._ast is None:
            self._ast = parse_program(self.source)
        return self._ast

    @property
    def lowered(self) -> bool:
        """Whether the IR is held, so :attr:`ir` parses nothing."""
        return self._ir is not None

    @property
    def ir(self) -> IRProgram:
        """The lowered IR with feature annotations preserved."""
        if self._ir is None:
            self._ir = lower_program(self.ast)
        return self._ir

    @property
    def icfg(self) -> ICFG:
        """The inter-procedural CFG from the entry point (cached; repeated
        analyses share statement identities)."""
        if self._icfg is None:
            self._icfg = ICFG.for_entry(self.ir, self.entry)
        return self._icfg

    def verify(self) -> "ProductLine":
        """Run the IR well-formedness verifier; returns self for chaining."""
        from repro.ir.verify import verify_program

        verify_program(self.ir)
        return self

    # ------------------------------------------------------------------
    # Metrics (Table 1 columns)
    # ------------------------------------------------------------------

    @property
    def kloc(self) -> float:
        """Source size in thousands of (non-blank) lines."""
        lines = [line for line in self.source.splitlines() if line.strip()]
        return len(lines) / 1000.0

    @property
    def features_total(self) -> int:
        """Features in the feature model (Table 1, "Features total")."""
        return len(self.feature_model.feature_names)

    @property
    def features_annotated(self) -> FrozenSet[str]:
        """Features mentioned anywhere in annotations of the source."""
        return annotated_features(self.ast)

    @property
    def features_reachable(self) -> Tuple[str, ...]:
        """Features on statements reachable from the entry point
        (Table 1, "Features reachable"), in deterministic order."""
        return tuple(sorted(self.icfg.annotated_feature_names()))

    @property
    def configurations_reachable(self) -> int:
        """2^reachable (Table 1, "Configurations reachable")."""
        return 1 << len(self.features_reachable)

    def count_valid_configurations(self) -> int:
        """Valid configurations over the reachable features (Table 1,
        "Configurations valid"): projections of full valid configurations
        onto the reachable feature set."""
        system = BddConstraintSystem()
        constraint = model_constraint(self.feature_model, system)
        reachable = self.features_reachable
        for extra in reachable:
            # Reachable features outside the model are unconstrained.
            system.manager.var(extra)
        projected = project_onto(constraint, reachable)
        return projected.model_count(reachable)

    def valid_configurations(self) -> Iterator[FrozenSet[str]]:
        """All valid configurations over the reachable features, as
        frozensets of enabled features (deterministic order)."""
        system = BddConstraintSystem()
        constraint = model_constraint(self.feature_model, system)
        reachable = self.features_reachable
        for extra in reachable:
            system.manager.var(extra)
        projected = project_onto(constraint, reachable)
        seen = set()
        for assignment in projected.models(reachable):
            config = frozenset(n for n, v in assignment.items() if v)
            if config not in seen:
                seen.add(config)
                yield config
