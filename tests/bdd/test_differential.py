"""Differential tests for the data-oriented BDD core.

Random operation streams (build / apply / restrict / quantify /
satcount) run through the array-backed manager and are checked against
an exact truth-table reference (functions over 5 variables as 32-bit
masks).  The same streams run on a manager whose store starts with a
tiny key width, so amortized-doubling rebuilds fire mid-stream; every
result must render exactly as on a manager that never grew.  Final
results additionally round-trip through the cross-process serialization
codec and through the DNF reference backend.
"""

from hypothesis import given, settings, strategies as st

from repro.bdd import BDDManager
from repro.constraints import BddConstraintSystem, DnfConstraintSystem
from repro.constraints.serialize import decode_constraints, encode_constraints

VARS = ("a", "b", "c", "d", "e")
NASSIGN = 1 << len(VARS)
FULL = (1 << NASSIGN) - 1

#: assignment index -> {name: bool}
ASSIGNMENTS = [
    {name: bool(bits >> i & 1) for i, name in enumerate(VARS)}
    for bits in range(NASSIGN)
]


def _var_mask(index: int) -> int:
    return sum(
        1 << a for a in range(NASSIGN) if a >> index & 1
    )


VAR_MASKS = [_var_mask(i) for i in range(len(VARS))]


def _restrict_mask(mask: int, index: int, value: bool) -> int:
    out = 0
    for a in range(NASSIGN):
        fixed = (a | (1 << index)) if value else (a & ~(1 << index))
        if mask >> fixed & 1:
            out |= 1 << a
    return out


_var_idx = st.integers(min_value=0, max_value=len(VARS) - 1)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("and"), st.integers(0), st.integers(0)),
        st.tuples(st.just("or"), st.integers(0), st.integers(0)),
        st.tuples(st.just("xor"), st.integers(0), st.integers(0)),
        st.tuples(st.just("not"), st.integers(0), st.integers(0)),
        st.tuples(st.just("restrict"), st.integers(0), _var_idx),
        st.tuples(st.just("exists"), st.integers(0), _var_idx),
        st.tuples(st.just("forall"), st.integers(0), _var_idx),
    ),
    min_size=1,
    max_size=24,
)


def _run_stream(mgr, ops):
    """Apply an op stream; returns parallel lists of (node, exact mask)."""
    nodes = [mgr.false, mgr.true] + [mgr.var(name) for name in VARS]
    masks = [0, FULL] + VAR_MASKS
    for op, i, j in ops:
        a = nodes[i % len(nodes)]
        ma = masks[i % len(masks)]
        if op == "and":
            b, mb = nodes[j % len(nodes)], masks[j % len(masks)]
            nodes.append(mgr.and_(a, b))
            masks.append(ma & mb)
        elif op == "or":
            b, mb = nodes[j % len(nodes)], masks[j % len(masks)]
            nodes.append(mgr.or_(a, b))
            masks.append(ma | mb)
        elif op == "xor":
            b, mb = nodes[j % len(nodes)], masks[j % len(masks)]
            nodes.append(mgr.xor(a, b))
            masks.append(ma ^ mb)
        elif op == "not":
            nodes.append(mgr.not_(a))
            masks.append(FULL & ~ma)
        elif op == "restrict":
            value = bool(i & 1)
            nodes.append(mgr.restrict(a, VARS[j], value))
            masks.append(_restrict_mask(ma, j, value))
        elif op == "exists":
            nodes.append(mgr.exists(a, [VARS[j]]))
            masks.append(
                _restrict_mask(ma, j, False) | _restrict_mask(ma, j, True)
            )
        else:  # forall
            nodes.append(mgr.forall(a, [VARS[j]]))
            masks.append(
                _restrict_mask(ma, j, False) & _restrict_mask(ma, j, True)
            )
    return nodes, masks


def _check_against_masks(mgr, nodes, masks):
    for node, mask in zip(nodes, masks):
        assert mgr.satcount(node, over=VARS) == bin(mask).count("1")
        for a, assignment in enumerate(ASSIGNMENTS):
            assert mgr.evaluate(node, assignment) == bool(mask >> a & 1), (
                f"node {node} disagrees with reference at {assignment}"
            )


@given(_ops)
@settings(max_examples=120, deadline=None)
def test_operation_stream_matches_truth_tables(ops):
    mgr = BDDManager(ordering=VARS)
    nodes, masks = _run_stream(mgr, ops)
    _check_against_masks(mgr, nodes, masks)


@given(_ops)
@settings(max_examples=60, deadline=None)
def test_operation_stream_survives_table_growth(ops):
    """Same streams on a store that starts 4 bits wide: every few nodes
    trigger an amortized-doubling rebuild, including mid-kernel."""
    mgr = BDDManager()
    mgr._store.shift = 4
    mgr._store.limit = 16
    for name in VARS:
        mgr.var(name)
    nodes, masks = _run_stream(mgr, ops)
    _check_against_masks(mgr, nodes, masks)
    reference = BDDManager(ordering=VARS)
    ref_nodes, _ = _run_stream(reference, ops)
    # Growth never changes function identity: expression renderings of
    # corresponding results agree.
    assert len(nodes) == len(ref_nodes)
    for n1, n2 in zip(nodes, ref_nodes):
        assert mgr.to_expr_string(n1) == reference.to_expr_string(n2)


@given(_ops)
@settings(max_examples=60, deadline=None)
def test_stream_results_roundtrip_through_codec(ops):
    system = BddConstraintSystem()
    for name in VARS:
        system.var(name)
    nodes, masks = _run_stream(system.manager, ops)
    constraints = [system.wrap_node(node) for node in nodes]
    document = encode_constraints(system, constraints)
    # Decode into a system declared in reverse order: the codec promises
    # canonicality in the receiver's order, not the sender's.
    receiver = BddConstraintSystem()
    for name in reversed(VARS):
        receiver.var(name)
    decoded = decode_constraints(receiver, document)
    assert len(decoded) == len(constraints)
    for constraint, mask in zip(decoded, masks):
        for a, assignment in enumerate(ASSIGNMENTS):
            assert constraint.satisfied_by(assignment) == bool(mask >> a & 1)


@given(_ops)
@settings(max_examples=40, deadline=None)
def test_stream_results_agree_with_dnf_backend(ops):
    """The abandoned DNF representation is the semantic reference
    implementation (paper §5); rendered results must agree pointwise."""
    mgr = BDDManager(ordering=VARS)
    nodes, masks = _run_stream(mgr, ops)
    dnf = DnfConstraintSystem()
    # Checking every node is quadratic in stream length; the last few
    # results transitively exercise the whole stream.
    for node, mask in list(zip(nodes, masks))[-4:]:
        constraint = dnf.parse(mgr.to_expr_string(node))
        assert constraint.is_false == (mask == 0)
        for a, assignment in enumerate(ASSIGNMENTS):
            assert constraint.satisfied_by(assignment) == bool(mask >> a & 1)
