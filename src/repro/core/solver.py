"""The SPLLIFT facade: run an unmodified IFDS analysis over a whole SPL.

Usage::

    icfg = ICFG.for_entry(lower_program(parse_program(source)))
    analysis = TaintAnalysis(icfg)          # a plain IFDS problem
    spllift = SPLLift(analysis, feature_model=model)
    results = spllift.solve()
    results.constraint_for(stmt, fact)      # e.g. !F & G & !H

In cases where the original analysis reports that fact ``d`` may hold at
statement ``s``, the lifted analysis reports the *feature constraint* under
which ``d`` may hold at ``s`` (Section 1 of the paper).  As a side effect
the 0-fact's value gives each statement's reachability constraint
(Section 3.3).
"""

from __future__ import annotations

import hashlib
import time
from itertools import islice
from operator import add
from typing import (
    Dict,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TypeVar,
    Union,
)

from repro.constraints.base import Constraint, ConstraintSystem, as_assignment
from repro.constraints.bddsystem import BddConstraintSystem
from repro.core.lifting import FM_MODES, LiftedProblem
from repro.featuremodel.batory import to_constraint
from repro.featuremodel.model import FeatureModel
from repro.ide.solver import IDEResults, IDESolver
from repro.ifds.problem import IFDSProblem, ZERO
from repro.ir.instructions import Instruction
from repro.obs import runtime as obs
from repro.utils import collector

__all__ = ["SPLLift", "SPLLiftResults", "ResultLines", "lines_digest"]

D = TypeVar("D", bound=Hashable)


class SPLLiftResults(Generic[D]):
    """Feature constraints per (statement, fact)."""

    def __init__(
        self,
        ide_results: IDEResults[D, Constraint],
        system: ConstraintSystem,
        feature_model: Constraint,
        stats: Dict[str, int],
        solve_seconds: float,
    ) -> None:
        self._ide = ide_results
        self.system = system
        self.feature_model = feature_model
        self.stats = stats
        self.solve_seconds = solve_seconds

    def constraint_for(self, stmt: Instruction, fact: D) -> Constraint:
        """The constraint under which ``fact`` may hold just before
        ``stmt`` (``false`` when it cannot hold in any product)."""
        return self._ide.value_at(stmt, fact)

    def holds_in(self, stmt: Instruction, fact: D, configuration, over=None) -> bool:
        """Does ``fact`` hold at ``stmt`` for the given configuration?

        With ``over`` given, ``configuration`` is interpreted as a *partial*
        configuration over exactly the features in ``over`` (e.g. the
        reachable features); the check then asks whether the constraint is
        satisfiable by *some* product agreeing with it — which is how the
        paper compares against A2 runs over reachable-feature
        configurations.  Without ``over``, features outside the
        configuration are treated as disabled.
        """
        constraint = self.constraint_for(stmt, fact)
        if constraint.is_false:
            return False
        if over is None:
            return constraint.satisfied_by(configuration)
        assignment = as_assignment(configuration, over)
        cube = self.system.and_all(
            self.system.var(name) if value else ~self.system.var(name)
            for name, value in assignment.items()
        )
        return not (constraint & cube).is_false

    def finding_constraint(self, stmt: Instruction, fact: D) -> Constraint:
        """The constraint under which a *finding* at ``stmt`` manifests:
        the fact must reach the statement **and** the statement itself
        must be enabled.  Use this (not :meth:`constraint_for`) when the
        statement is the event — a dereference, a print, a use."""
        constraint = self.constraint_for(stmt, fact)
        if stmt.annotation is None or constraint.is_false:
            return constraint
        return constraint & self.system.from_formula(stmt.annotation)

    def config_is_valid(self, configuration, over) -> bool:
        """Is this partial configuration (over the features ``over``)
        extendable to a product satisfying the feature model?"""
        assignment = as_assignment(configuration, over)
        cube = self.system.and_all(
            self.system.var(name) if value else ~self.system.var(name)
            for name, value in assignment.items()
        )
        return not (self.feature_model & cube).is_false

    def results_at(
        self, stmt: Instruction, include_zero: bool = False
    ) -> Dict[D, Constraint]:
        """All facts with a satisfiable constraint at ``stmt``."""
        return self._ide.results_at(stmt, include_zero=include_zero)

    def reachability_of(self, stmt: Instruction) -> Constraint:
        """The constraint under which ``stmt`` is reachable at all — the
        0-fact's value (Section 3.3 of the paper)."""
        return self._ide.value_at(stmt, ZERO)

    def items(self):
        """Iterate ``((stmt, fact), constraint)`` pairs."""
        return self._ide.items()

    # ------------------------------------------------------------------
    # Canonical serialization (the analysis service's exchange format)
    # ------------------------------------------------------------------

    def result_lines(self) -> ResultLines:
        """Canonical, order-independent serialization of the solution.

        One ``location|statement|fact|constraint`` line per (statement,
        fact) pair whose constraint is satisfiable, sorted.  Statement
        locations, statement/fact renderings and constraint strings are
        all deterministic for a given subject, so two solves of the same
        job — in different processes, on different machines — produce the
        same lines.  This is what a result record stores and what the
        sha256 :meth:`result_digest` is computed over.

        Each distinct constraint, each statement's ``location|statement|``
        prefix and each fact's ``repr`` is rendered once per call: equal
        constraints share one handle (one BDD node, one DNF cube set), and
        a pass holds far fewer of them than lines.  The lines come back
        compact (:class:`ResultLines`): each distinct constraint's text is
        held once.  The same pass counts the lines whose fact is not the
        0-fact (:attr:`ResultLines.facts`).
        """
        prefixes: Dict[Instruction, str] = {}
        facts: Dict[D, str] = {}
        constraints: Dict[Constraint, int] = {}
        texts: List[str] = []
        heads: List[str] = []
        indices: List[int] = []
        findings = 0
        for (stmt, fact), constraint in self._ide.items():
            if constraint.is_false:
                continue
            if fact is not ZERO:
                findings += 1
            prefix = prefixes.get(stmt)
            if prefix is None:
                prefix = prefixes[stmt] = f"{stmt.location}|{stmt}|"
            rendered_fact = facts.get(fact)
            if rendered_fact is None:
                rendered_fact = facts[fact] = f"{fact!r}|"
            index = constraints.get(constraint)
            if index is None:
                index = constraints[constraint] = len(texts)
                texts.append(str(constraint))
            heads.append(prefix + rendered_fact)
            indices.append(index)
        # The heads alone order the full lines (see ResultLines).  A
        # permutation, not a tuple per line: tuples are objects the
        # cyclic collector tracks, and a result has tens of thousands.
        order = sorted(range(len(heads)), key=heads.__getitem__)
        table = sorted(set(texts))
        position = {text: index for index, text in enumerate(table)}
        remap = [position[text] for text in texts]
        return ResultLines(
            table,
            list(map(heads.__getitem__, order)),
            list(map(remap.__getitem__, map(indices.__getitem__, order))),
            findings,
        )

    def result_digest(self) -> str:
        """sha256 hex digest of :meth:`result_lines` — the bit-identity
        check used by the regression protocol and the warm-cache verify."""
        return self.result_lines().digest()


#: Lines hashed per ``update`` by :func:`lines_digest`: few, so that a
#: chunk of long lines stays small (GPL-like reaching definitions
#: averages ~1 KB a line, 12 MB in all).
_DIGEST_CHUNK = 64


def lines_digest(lines: Iterable[str]) -> str:
    """sha256 hex digest of canonical result lines, newline-joined: the
    one definition of a result digest.  The lines are hashed a chunk at
    a time, so their joined text is never built whole."""
    hasher = hashlib.sha256()
    lines = iter(lines)
    chunk = list(islice(lines, _DIGEST_CHUNK))
    while chunk:
        hasher.update("\n".join(chunk).encode("utf-8"))
        chunk = list(islice(lines, _DIGEST_CHUNK))
        if chunk:
            hasher.update(b"\n")
    return hasher.hexdigest()


class ResultLines(Sequence[str]):
    """The sorted canonical lines of one solve, each constraint held once.

    A line is ``head + constraint``: its ``location|statement|fact|``
    head and the text of its constraint.  The distinct constraint texts
    are one sorted table (:attr:`constraints`), and each line keeps its
    head and an index into it: the 12 paper jobs have 75,146 lines but
    only 1,177 distinct constraints.  Indexing and iteration yield the
    expanded lines; :meth:`rows` gives the compact
    ``location|statement|fact|<index>`` form a result record stores, and
    :meth:`digest` hashes the expanded text.

    The heads are sorted, and that is the order of the full lines: no
    location or fact rendering contains ``|`` and each location names
    one statement, so no head is a prefix of another and two lines
    compare within their heads.  A statement rendering may contain
    ``|``, so a row splits at its last ``|`` (:meth:`from_rows`).
    """

    __slots__ = ("constraints", "facts", "_heads", "_indices")

    def __init__(
        self,
        constraints: List[str],
        heads: List[str],
        indices: List[int],
        facts: int,
    ) -> None:
        #: The distinct rendered constraints, sorted.
        self.constraints = constraints
        #: How many lines have a fact other than the 0-fact.
        self.facts = facts
        self._heads = heads
        self._indices = indices

    @classmethod
    def from_rows(
        cls, constraints: List[str], rows: Sequence[str], facts: int
    ) -> ResultLines:
        """The lines of stored :meth:`rows` over their ``constraints``."""
        heads = []
        indices = []
        for row in rows:
            cut = row.rindex("|") + 1
            heads.append(row[:cut])
            indices.append(int(row[cut:]))
        return cls(list(constraints), heads, indices, facts)

    def rows(self) -> List[str]:
        """``location|statement|fact|<index>`` per line, in order."""
        labels = [str(index) for index in range(len(self.constraints))]
        return list(map(add, self._heads, map(labels.__getitem__, self._indices)))

    def digest(self) -> str:
        """sha256 hex digest of the expanded lines (:func:`lines_digest`)."""
        return lines_digest(self)

    def __len__(self) -> int:
        return len(self._heads)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[position] for position in range(*index.indices(len(self)))]
        return self._heads[index] + self.constraints[self._indices[index]]

    def __iter__(self) -> Iterator[str]:
        return map(
            add, self._heads, map(self.constraints.__getitem__, self._indices)
        )

    def __repr__(self) -> str:
        return (
            f"ResultLines({len(self)} lines, "
            f"{len(self.constraints)} constraints)"
        )


class SPLLift(Generic[D]):
    """Lift and solve an IFDS analysis over a software product line."""

    def __init__(
        self,
        analysis: IFDSProblem[D],
        feature_model: Optional[Union[Constraint, FeatureModel]] = None,
        system: Optional[ConstraintSystem] = None,
        fm_mode: str = "edge",
    ) -> None:
        """
        Parameters
        ----------
        analysis:
            An *unmodified* IFDS problem over the product line's ICFG.
        feature_model:
            The product line's feature model — either an already-compiled
            :class:`Constraint` or a :class:`FeatureModel` (translated via
            Batory's encoding).  ``None`` means no model (all products).
        system:
            The constraint system; defaults to a fresh BDD-backed one.
        fm_mode:
            One of ``"edge"`` (paper's choice), ``"seed"`` (rejected
            variant) or ``"ignore"`` — see Section 4.2.  ``"ignore"``
            drops ``feature_model`` unread: the solve and its results
            are those of ``feature_model=None``.
        """
        if fm_mode not in FM_MODES:
            raise ValueError(f"fm_mode must be one of {FM_MODES}, got {fm_mode!r}")
        self.system = system if system is not None else BddConstraintSystem()
        if feature_model is None or fm_mode == "ignore":
            fm_constraint = self.system.true
        elif isinstance(feature_model, FeatureModel):
            fm_constraint = to_constraint(feature_model, self.system)
        else:
            fm_constraint = feature_model
        self.feature_model = fm_constraint
        self.fm_mode = fm_mode
        self.problem = LiftedProblem(
            analysis, self.system, fm_constraint, fm_mode=fm_mode
        )
        self.analysis = analysis

    def solve(
        self,
        worklist_order: Optional[str] = None,
        order_seed: int = 0,
        summaries: Optional[object] = None,
        engine: Optional[str] = None,
    ) -> SPLLiftResults[D]:
        """Run the IDE solver on the lifted problem (one single pass).

        ``worklist_order``/``order_seed`` select the phase-I iteration
        order (see :class:`IDESolver`; ``None`` is ``rpo``, the order that
        re-joins least); the fixed point — and therefore the result
        digest — is order-independent.

        ``summaries`` arms incremental re-analysis: a
        :class:`~repro.ide.summaries.SummaryCache` whose stored
        per-method summaries are injected for content-identical methods
        and refreshed for the rest (see ``summary_cache_for``); results
        are bit-identical to a cold solve.

        ``engine`` selects the evaluation engine (default ``tabulate``):
        ``"tabulate"`` is the two-phase IDE tabulation above;
        ``"datalog"`` compiles the lifted problem to constraint-annotated
        Datalog rules and runs a semi-naive fixpoint
        (:mod:`repro.datalog`) — an independent engine whose results are
        bit-identical.  The datalog engine does not support
        ``summaries``.

        Every solve runs in this process; parallelism lives at job
        granularity (:class:`~repro.core.parallel.ProcessTaskPool`).
        """
        from repro.datalog import resolve_engine

        engine = resolve_engine(engine)
        if engine == "datalog" and summaries is not None:
            raise ValueError(
                "engine 'datalog' does not support incremental summaries "
                "(use the tabulation engine for warm solves)"
            )
        # Live progress gets the BDD substrate's node count alongside the
        # solver's own fields; set here because only this layer knows the
        # constraint system.
        progress = obs.progress()
        if progress is not None and hasattr(self.system, "solver_stats"):
            system = self.system
            progress.extra = lambda: {
                "bdd_nodes": system.solver_stats()["bdd_nodes"]
            }
        # One unit with the collector paused (repro.utils.collector), so
        # the engine's solver dies before the collector comes back on.
        with collector.paused():
            with obs.tracer().span(
                "spllift/solve", fm_mode=self.fm_mode, engine=engine
            ):
                if engine == "datalog":
                    results = self._solve_datalog()
                else:
                    results = self._solve_timed(
                        worklist_order, order_seed, summaries
                    )
            self._publish_bdd_metrics()
            return results

    def _solve_datalog(self) -> SPLLiftResults[D]:
        from repro.datalog import DatalogSolver

        solver = DatalogSolver(self.problem)
        started = time.perf_counter()
        ide_results = solver.solve()
        elapsed = time.perf_counter() - started
        stats: Dict[str, int] = {"engine": "datalog"}
        stats.update(solver.stats)
        return SPLLiftResults(
            ide_results, self.system, self.feature_model, stats, elapsed
        )

    def _solve_timed(
        self,
        worklist_order: Optional[str],
        order_seed: int,
        summaries: Optional[object] = None,
    ) -> SPLLiftResults[D]:
        solver = IDESolver(
            self.problem,
            worklist_order=worklist_order,
            order_seed=order_seed,
            summaries=summaries,
        )
        started = time.perf_counter()
        ide_results = solver.solve()
        elapsed = time.perf_counter() - started
        return SPLLiftResults(
            ide_results,
            self.system,
            self.feature_model,
            dict(solver.stats),
            elapsed,
        )

    def _publish_bdd_metrics(self) -> None:
        """Sample the BDD substrate into the registry (gauges: levels, not
        increments — `solver_stats` is cumulative over the system's life)."""
        if not hasattr(self.system, "solver_stats"):
            return
        stats = self.system.solver_stats()
        metrics = obs.metrics()
        for name, value in stats.items():
            metrics.gauge_max(f"bdd.{name}", value)
        hits = stats.get("bdd_apply_cache_hits", 0)
        calls = hits + stats.get("bdd_apply_cache_misses", 0)
        if calls:
            metrics.gauge("bdd.apply_hit_ratio", hits / calls)
