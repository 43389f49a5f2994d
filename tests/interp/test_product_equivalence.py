"""Property: executing the SPL under c ≡ executing preprocess(c).

This ties three substrates together: the preprocessor, the lowering, and
the interpreter's feature-sensitive skipping must all agree on what a
configuration means.  Checked on random generated subjects across all
valid configurations and several nondet schedules.

Both runs are fuel-bounded, and the lifted run also spends fuel on the
feature-disabled statements it steps over, which the derived product
does not contain.  A fuel-exhausted run is therefore cut at an arbitrary
point of the same execution, and only its print stream *up to the cut*
is comparable.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.interp import Interpreter
from repro.ir import lower_program
from repro.minijava import derive_product
from repro.spl.generator import SubjectSpec, generate_subject


def printed(trace):
    """The observable stream: data and taint of every print, in order."""
    return [(value.data, value.tainted) for _, value in trace.prints]


def fuel_exhausted(trace):
    return not trace.completed and trace.stop_reason.startswith("fuel")


def assert_equivalent(spl_trace, product_trace, config):
    """Identical print streams and stop status; when a run ran out of
    fuel, its stream need only be a prefix of the other run's (of the
    longer one, when both ran out)."""
    spl, product = printed(spl_trace), printed(product_trace)
    spl_cut, product_cut = fuel_exhausted(spl_trace), fuel_exhausted(product_trace)
    if not (spl_cut or product_cut):
        assert spl == product, config
        assert spl_trace.completed == product_trace.completed, config
        return
    shorter, longer = sorted((spl, product), key=len)
    assert longer[: len(shorter)] == shorter, config
    # A run that stopped on its own cannot have printed less than one
    # cut short by fuel.
    if not spl_cut:
        assert len(spl) == len(longer), config
    if not product_cut:
        assert len(product) == len(longer), config


def run_pair(product_line, config, seed):
    spl_rng = random.Random(seed)
    product_rng = random.Random(seed)
    spl_trace = Interpreter(
        product_line.ir,
        configuration=config,
        fuel=20_000,
        nondet_source=lambda: spl_rng.randrange(8),
    ).run()
    product_ir = lower_program(derive_product(product_line.ast, config))
    product_trace = Interpreter(
        product_ir,
        fuel=20_000,
        nondet_source=lambda: product_rng.randrange(8),
    ).run()
    return spl_trace, product_trace


@given(
    subject_seed=st.integers(min_value=0, max_value=2_000),
    schedule_seed=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=25, deadline=None)
# Both runs of config ['B'] exhaust their fuel, at 81 and 84 prints.
@example(subject_seed=260, schedule_seed=0)
def test_spl_execution_equals_product_execution(subject_seed, schedule_seed):
    spec = SubjectSpec(
        name=f"equiv-{subject_seed}",
        seed=subject_seed,
        classes=3,
        methods_per_class=(2, 3),
        statements_per_method=(3, 7),
        annotation_density=0.4,
        entry_fanout=4,
        reachable_features=("A", "B"),
        source_density=0.4,
        sink_density=0.8,
        uninit_density=0.3,
    )
    product_line = generate_subject(spec)
    for config in product_line.valid_configurations():
        spl_trace, product_trace = run_pair(product_line, config, schedule_seed)
        assert_equivalent(spl_trace, product_trace, sorted(config))


def test_figure1_equivalence_exhaustive():
    from repro.spl import figure1

    product_line = figure1()
    for config in product_line.valid_configurations():
        spl_trace, product_trace = run_pair(product_line, config, 0)
        assert_equivalent(spl_trace, product_trace, sorted(config))


def test_uninit_reads_equivalent_counts():
    """Uninit-read *sets* also agree between SPL and product execution
    (locations differ — different IR — so compare (method, name) pairs)."""
    from repro.spl import device_spl

    product_line = device_spl()
    for config in product_line.valid_configurations():
        spl_trace, product_trace = run_pair(product_line, config, 1)
        spl_events = {
            (stmt.method.qualified_name, name)
            for stmt, name in spl_trace.uninit_reads
        }
        product_events = {
            (stmt.method.qualified_name, name)
            for stmt, name in product_trace.uninit_reads
        }
        assert spl_events == product_events, sorted(config)
