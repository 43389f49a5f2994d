"""Content-keyed per-method summary reuse for incremental re-analysis.

A lifted IDE solve spends its time building, per calling context
``(method, entry fact)``, the method's jump functions and end summaries.
Those depend only on the method's own lowered body and on its callees —
never on callers — so they are reusable verbatim across solves as long
as the method *and its whole callee cone* are content-identical.  This
module persists exactly that unit in the result store:

- Every reachable method gets a transitive content digest
  (:mod:`repro.ir.digest`).  The digest of an edited method and of all
  its transitive callers changes; everything else keeps its digest.
- A stored record, keyed by ``H(problem key, method digest)``, holds the
  method's complete phase-I fixed point: for each calling context, all
  interior jump rows (phase II needs them, not just the exit rows) and
  the end-summary markers, with facts index-interned and constraints
  batched through the canonical BDD codec
  (:mod:`repro.constraints.serialize`).
- On a warm solve, the solver asks :meth:`SummaryCache.ensure_context`
  instead of seeding tabulation at a callee start.  A stored context is
  *injected*: its rows are written into the jump table as final (never
  enqueued — they already are a fixed point), and its callee contexts
  are ensured recursively so phase II sees the full exploded graph.  A
  missing or undecodable context falls back to normal tabulation.

Dirty-closure invalidation is implicit: edited methods and their
transitive callers get fresh digests, miss in the store, and are
re-tabulated; clean methods hit.  Because the clean set is closed under
the callee relation (a clean method's callees are clean by definition of
the transitive digest), injected rows can never be extended by new flow
— they are exact, which is why warm results are bit-identical to cold.

Everything fails open: a miss, a truncated document, a mis-keyed record
or a constraint naming an undeclared BDD variable just means that
method is recomputed.  The store is shared infrastructure
(:mod:`repro.service`) — dir, sqlite and served-HTTP backends all carry
summary records unmodified.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Set, Tuple

from repro.analyses.facts import (
    DefFact,
    FieldFact,
    LocalFact,
    TypedField,
    TypedLocal,
)
from repro.analyses.typestate import TypestateFact
from repro.constraints.serialize import (
    ConstraintCodecError,
    decode_constraints,
    encode_constraints,
)
from repro.ifds.problem import ZERO, ZeroFact
from repro.ir.digest import method_local_digest, transitive_method_digests
from repro.ir.program import IRMethod
from repro.obs import runtime as obs

__all__ = [
    "SUMMARY_SCHEMA",
    "SummaryCodecError",
    "SummaryCache",
    "encode_fact",
    "decode_fact",
    "problem_key_for",
    "summary_record_key",
    "summary_cache_for",
]

#: Record kind for method summaries in the result store (the store's
#: ``stats()`` counts records by this field, so summaries show up as
#: their own kind next to ``spllift-result/v2``).
SUMMARY_SCHEMA = "spllift-summary/v1"


class SummaryCodecError(ValueError):
    """A fact or edge function that cannot be encoded or decoded."""


# ----------------------------------------------------------------------
# Fact codec
# ----------------------------------------------------------------------
#
# Facts are plain value objects; each variant encodes to a small tagged
# list.  The one exception is DefFact, whose identity includes the
# *defining instruction* — encoded as (owning method's *local* digest,
# instruction index).  Local, not transitive: the instruction a site
# names is pinned by the owning method's own body alone, so a DefFact
# sited in a method that is dirty only transitively (an unchanged caller
# of the edit) still decodes.  A site in a body-edited method misses,
# which is correct — its defining instruction may no longer exist.


def encode_fact(fact: object, digest_of: Dict[IRMethod, str]) -> List[object]:
    if isinstance(fact, ZeroFact):
        return ["zero"]
    if isinstance(fact, LocalFact):
        return ["local", fact.name]
    if isinstance(fact, FieldFact):
        return ["field", fact.class_name, fact.field_name]
    if isinstance(fact, TypedLocal):
        return ["tlocal", fact.name, fact.class_name]
    if isinstance(fact, TypedField):
        return ["tfield", fact.declaring_class, fact.field_name, fact.class_name]
    if isinstance(fact, TypestateFact):
        return ["state", fact.local, fact.state]
    if isinstance(fact, DefFact):
        site = fact.site
        digest = digest_of.get(site.method)
        if digest is None:
            raise SummaryCodecError(
                f"DefFact site in unreachable method {site.method!r}"
            )
        return ["def", fact.name, digest, site.index]
    raise SummaryCodecError(f"unsupported fact type {type(fact).__name__}")


def decode_fact(
    document: object, method_by_digest: Dict[str, IRMethod]
) -> object:
    if not isinstance(document, list) or not document:
        raise SummaryCodecError(f"malformed fact document {document!r}")
    tag, args = document[0], document[1:]
    if tag == "zero" and not args:
        return ZERO
    if tag == "local" and len(args) == 1:
        return LocalFact(str(args[0]))
    if tag == "field" and len(args) == 2:
        return FieldFact(str(args[0]), str(args[1]))
    if tag == "tlocal" and len(args) == 2:
        return TypedLocal(str(args[0]), str(args[1]))
    if tag == "tfield" and len(args) == 3:
        return TypedField(str(args[0]), str(args[1]), str(args[2]))
    if tag == "state" and len(args) == 2:
        return TypestateFact(str(args[0]), str(args[1]))
    if tag == "def" and len(args) == 3:
        name, digest, index = args
        method = method_by_digest.get(digest)
        if method is None:
            raise SummaryCodecError(f"DefFact site digest {digest!r} unknown")
        if not isinstance(index, int) or not 0 <= index < len(method.instructions):
            raise SummaryCodecError(f"DefFact site index {index!r} out of range")
        return DefFact(str(name), method.instructions[index])
    raise SummaryCodecError(f"malformed fact document {document!r}")


# ----------------------------------------------------------------------
# Record keys
# ----------------------------------------------------------------------


def problem_key_for(problem: object) -> str:
    """The analysis-identity half of a summary record key.

    Covers everything besides program content that the summaries depend
    on: which analysis (and protocol, for typestate), the feature-model
    constraint and how it is applied.  The constraint renders
    deterministically because feature-model variables are declared first
    and in a fixed order (``LiftedProblem._declare_annotation_variables``).
    """
    inner = getattr(problem, "inner", problem)
    parts = [f"analysis={type(inner).__module__}.{type(inner).__qualname__}"]
    protocol = getattr(inner, "protocol", None)
    if protocol is not None:
        parts.append(f"protocol={protocol.name}")
    parts.append(f"fm_mode={getattr(problem, 'fm_mode', None)}")
    parts.append(f"fm={getattr(problem, 'feature_model', None)}")
    return "|".join(parts)


def summary_record_key(problem_key: str, method_digest: str) -> str:
    payload = "\n".join((SUMMARY_SCHEMA, problem_key, method_digest))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def summary_cache_for(spllift: object, store: object) -> "SummaryCache":
    """Build a :class:`SummaryCache` for a :class:`~repro.core.solver.SPLLift`
    instance against an opened store backend."""
    return SummaryCache(store, problem_key_for(spllift.problem))


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------

#: Decoded record entry per context: (jump rows, end summaries), both in
#: record order.
_Entry = Tuple[
    Tuple[Tuple[object, object, object], ...], Tuple[Tuple[object, object], ...]
]


class SummaryCache:
    """Warm-summary provider wired into one :class:`~repro.ide.solver.IDESolver`.

    Lifecycle: the solver calls :meth:`attach` once before seeding (this
    computes digests and eagerly loads/decodes every candidate record
    under the ``ide/phase1/summary_reuse`` span), then
    :meth:`ensure_context` for every calling context instead of the cold
    seed propagation, then :meth:`harvest` after phase I to store fresh
    summaries back.  One instance serves one solve; build a new one per
    re-solve (digests are per-program).
    """

    def __init__(self, store: object, problem_key: str) -> None:
        self.store = store
        self.problem_key = problem_key
        self._active = False
        self._system = None
        self._edge_table = None
        self._seed_fn = None
        self._digest_of: Dict[IRMethod, str] = {}
        self._local_digest_of: Dict[IRMethod, str] = {}
        self._method_by_local_digest: Dict[str, IRMethod] = {}
        self._records: Dict[IRMethod, Dict[object, _Entry]] = {}
        #: Contexts already ensured (injected or recomputed); repeat
        #: ensures are no-ops, matching the idempotent cold-path seeding.
        self._seen: Set[Tuple[IRMethod, object]] = set()
        self._injected: Set[Tuple[IRMethod, object]] = set()
        self._call_sites: Dict[IRMethod, Tuple[object, ...]] = {}

    # -- solver hooks --------------------------------------------------

    def attach(self, solver: object) -> None:
        """Bind to a solver; load and decode every candidate record.

        Summary reuse requires the lifted BDD problem shape (interned
        constraint edges, a canonical node codec).  Anything else —
        plain IFDS/IDE problems, the DNF reference system — detaches the
        cache so the solve runs exactly as a cold one.
        """
        problem = solver.problem
        system = getattr(problem, "system", None)
        edge_table = getattr(problem, "edge_table", None)
        if edge_table is None or not hasattr(system, "manager"):
            solver._summaries = None
            return
        self._system = system
        self._edge_table = edge_table
        self._seed_fn = problem.seed_edge_function()
        self._active = True
        icfg = solver.icfg
        stats = solver.stats
        with obs.tracer().span("ide/phase1/summary_reuse"):
            self._digest_of = transitive_method_digests(icfg.call_graph)
            self._local_digest_of = {
                method: method_local_digest(method) for method in self._digest_of
            }
            self._method_by_local_digest = {
                digest: method
                for method, digest in self._local_digest_of.items()
            }
            for method in icfg.reachable_methods:
                key = summary_record_key(self.problem_key, self._digest_of[method])
                record = self.store.get(key, schema=SUMMARY_SCHEMA)
                decoded = (
                    None if record is None else self._decode_record(method, record)
                )
                if decoded is None:
                    stats["summaries_invalidated"] += 1
                else:
                    self._records[method] = decoded

    def ensure_context(
        self, solver: object, method: IRMethod, fact: object, start: object
    ) -> None:
        """Make the calling context ``(method, fact)`` available.

        Injects the stored fixed point when the method is clean and the
        context was seen by the populating solve; otherwise seeds normal
        tabulation (counted as recomputed).
        """
        key = (method, fact)
        if key in self._seen:
            return
        entries = self._records.get(method)
        if entries is None or fact not in entries:
            self._seen.add(key)
            solver.stats["summaries_recomputed"] += 1
            solver._propagate(fact, start, fact, self._seed_fn)
            return
        self._inject(solver, method, fact)

    def _inject(self, solver: object, method: IRMethod, fact: object) -> None:
        """Write stored fixed points into the solver, contexts
        callee-recursively, without touching the worklist."""
        jump = solver._jump
        incoming = solver._incoming
        stats = solver.stats
        stack = [(method, fact)]
        while stack:
            key = stack.pop()
            if key in self._seen:
                continue
            self._seen.add(key)
            self._injected.add(key)
            m, d1 = key
            rows, ends = self._records[m][d1]
            stats["summaries_reused"] += 1
            for stmt, d2, fn in rows:
                stmt_rows = jump.get(stmt)
                if stmt_rows is None:
                    stmt_rows = jump[stmt] = {}
                row = stmt_rows.get(d1)
                if row is None:
                    row = stmt_rows[d1] = {}
                existing = row.get(d2)
                row[d2] = fn if existing is None else existing.join_with(fn)
            if ends:
                solver._end_summaries.setdefault(key, {}).update(
                    dict.fromkeys(ends)
                )
            # Bind callee contexts: phase II needs the callees' rows too,
            # and _incoming must name this caller in case a callee record
            # is unusable and tabulates (its exit re-applies summaries
            # into rows we already hold — a join no-op).
            for call in self._method_calls(solver, m):
                call_rows = jump.get(call)
                row = call_rows.get(d1) if call_rows is not None else None
                if not row:
                    continue
                for d2 in tuple(row):
                    for callee, start, entry_edges in solver._call_targets(
                        call, d2
                    ):
                        for d3, call_edge in entry_edges:
                            ckey = (callee, d3)
                            incoming.setdefault(ckey, {})[(call, d1, d2)] = call_edge
                            if ckey in self._seen:
                                continue
                            centries = self._records.get(callee)
                            if centries is not None and d3 in centries:
                                stack.append(ckey)
                            else:
                                self._seen.add(ckey)
                                stats["summaries_recomputed"] += 1
                                solver._propagate(d3, start, d3, self._seed_fn)

    def _method_calls(self, solver: object, method: IRMethod) -> Tuple[object, ...]:
        calls = self._call_sites.get(method)
        if calls is None:
            calls = self._call_sites[method] = tuple(
                solver.icfg.call_sites_in(method)
            )
        return calls

    def harvest(self, solver: object) -> None:
        """Store back the summaries of every method that was (re)computed.

        Methods whose every context was injected are skipped — the store
        already holds an equivalent record under the same key.
        """
        if not self._active:
            return
        jump = solver._jump
        icfg = solver.icfg
        with obs.tracer().span("ide/phase1/summary_harvest"):
            for method in icfg.reachable_methods:
                contexts: Set[object] = set()
                for stmt in method.instructions:
                    rows = jump.get(stmt)
                    if rows:
                        contexts.update(rows)
                if not contexts:
                    continue
                if all((method, d1) in self._injected for d1 in contexts):
                    continue
                record = self._encode_method(solver, method, contexts)
                if record is not None:
                    self.store.put(record)

    # -- record codec --------------------------------------------------

    def _encode_method(
        self, solver: object, method: IRMethod, contexts: Set[object]
    ) -> Optional[Dict[str, object]]:
        digest = self._digest_of[method]
        fact_index: Dict[object, int] = {}
        fact_docs: List[object] = []
        constraint_index: Dict[object, int] = {}
        constraints: List[object] = []

        def fact_ref(fact: object) -> int:
            ref = fact_index.get(fact)
            if ref is None:
                ref = fact_index[fact] = len(fact_docs)
                fact_docs.append(encode_fact(fact, self._local_digest_of))
            return ref

        def constraint_ref(fn: object) -> int:
            constraint = getattr(fn, "constraint", None)
            if constraint is None:
                raise SummaryCodecError(
                    f"edge function {fn!r} is not a constraint edge"
                )
            ref = constraint_index.get(constraint)
            if ref is None:
                ref = constraint_index[constraint] = len(constraints)
                constraints.append(constraint)
            return ref

        jump = solver._jump
        try:
            context_docs = []
            for d1 in sorted(contexts, key=repr):
                jumps = []
                for stmt in method.instructions:
                    rows = jump.get(stmt)
                    row = rows.get(d1) if rows is not None else None
                    if not row:
                        continue
                    for d2, fn in row.items():
                        jumps.append([stmt.index, fact_ref(d2), constraint_ref(fn)])
                ends = [
                    [stmt.index, fact_ref(d4)]
                    for stmt, d4 in sorted(
                        solver._end_summaries.get((method, d1), ()),
                        key=lambda item: (item[0].index, repr(item[1])),
                    )
                ]
                context_docs.append(
                    {"entry": fact_ref(d1), "jumps": jumps, "ends": ends}
                )
            return {
                "schema": SUMMARY_SCHEMA,
                "digest": summary_record_key(self.problem_key, digest),
                "method": method.qualified_name,
                "method_digest": digest,
                "facts": fact_docs,
                "constraints": encode_constraints(self._system, constraints),
                "contexts": context_docs,
            }
        except SummaryCodecError:
            # An unsupported fact or edge shape: this method's summaries
            # simply are not persisted; the solve itself is unaffected.
            return None

    def _decode_record(
        self, method: IRMethod, record: Dict[str, object]
    ) -> Optional[Dict[object, _Entry]]:
        """Decode one stored record into live solver structures.

        Record-level malformation — wrong schema, mis-keyed method,
        truncated tables, constraints naming undeclared variables —
        returns ``None``: a miss, never an exception.  A *context* whose
        facts no longer resolve (typically a ``DefFact`` sited in the
        edited method: its identity genuinely changed) is dropped alone;
        the method's other contexts stay injectable.  Dropping whole
        contexts is sound — an absent context just re-tabulates — while
        dropping individual rows would inject a truncated fixed point,
        so any bad row discards its whole context.
        """
        bad = object()  # sentinel: a fact that failed to decode
        try:
            if record.get("schema") != SUMMARY_SCHEMA:
                return None
            if record.get("method") != method.qualified_name:
                return None
            if record.get("method_digest") != self._digest_of[method]:
                return None
            roots = decode_constraints(
                self._system,
                record["constraints"],
                require_declared_vars=True,
            )
            edges = [self._edge_table.edge(constraint) for constraint in roots]
            facts = []
            for doc in record["facts"]:
                try:
                    facts.append(decode_fact(doc, self._method_by_local_digest))
                except SummaryCodecError:
                    facts.append(bad)
            instructions = method.instructions

            def pick(table: list, ref: object) -> object:
                # Explicit bounds check: a corrupt negative ref must be a
                # decode failure, not a silent alias of the table's tail.
                if not isinstance(ref, int) or not 0 <= ref < len(table):
                    raise SummaryCodecError(f"table ref {ref!r} out of range")
                value = table[ref]
                if value is bad:
                    raise SummaryCodecError(f"fact ref {ref!r} undecodable")
                return value

            entries: Dict[object, _Entry] = {}
            for context in record["contexts"]:
                try:
                    d1 = pick(facts, context["entry"])
                    rows = []
                    for stmt_idx, fact_ref, root_ref in context["jumps"]:
                        fn = pick(edges, root_ref)
                        if fn.is_top:
                            continue
                        rows.append(
                            (pick(instructions, stmt_idx), pick(facts, fact_ref), fn)
                        )
                    ends = tuple(
                        (pick(instructions, stmt_idx), pick(facts, fact_ref))
                        for stmt_idx, fact_ref in context["ends"]
                    )
                    entries[d1] = (tuple(rows), ends)
                except (SummaryCodecError, KeyError, TypeError, ValueError):
                    continue
            return entries or None
        except (
            ConstraintCodecError,
            SummaryCodecError,
            KeyError,
            IndexError,
            TypeError,
            ValueError,
        ):
            return None
