"""Section 4.2: the three ways of handling the feature model.

- "edge": conjoin m onto every edge (the paper's shipped design);
- "seed": start value m, edges unchanged (the rejected first attempt —
  "while this yields the same analysis results eventually, we found that
  it wastes performance");
- "ignore": no m at all.

"edge" and "seed" must agree on all final values; "edge" must do no more
jump-function work than "seed" (that is the point of the design); and
"ignore" differs exactly by not filtering invalid configurations.
"""

import pytest

from repro.analyses import (
    ReachingDefinitionsAnalysis,
    TaintAnalysis,
    UninitializedVariablesAnalysis,
)
from repro.constraints import BddConstraintSystem
from repro.core import SPLLift
from repro.core.lifting import FM_MODES
from repro.spl import device_spl, figure1_with_model, gpl_like


def solve_mode(product_line, analysis_class, fm_mode, system):
    analysis = analysis_class(product_line.icfg)
    return SPLLift(
        analysis,
        feature_model=product_line.feature_model,
        system=system,
        fm_mode=fm_mode,
    ).solve()


@pytest.mark.parametrize("analysis_class", [TaintAnalysis, UninitializedVariablesAnalysis])
@pytest.mark.parametrize("builder", [figure1_with_model, device_spl])
def test_edge_and_seed_agree_on_all_values(analysis_class, builder):
    """"This yields the same analysis results eventually" — modulo the
    seed node itself, whose value trivially stays `true` in edge mode but
    is `m` in seed mode; everywhere both answers agree once conjoined
    with the model."""
    product_line = builder()
    system = BddConstraintSystem()
    edge = solve_mode(product_line, analysis_class, "edge", system)
    seed = solve_mode(product_line, analysis_class, "seed", system)
    model = edge.feature_model
    for stmt in product_line.icfg.reachable_instructions():
        edge_values = edge.results_at(stmt, include_zero=True)
        seed_values = seed.results_at(stmt, include_zero=True)
        assert set(edge_values) == set(seed_values), stmt.location
        for fact, value in edge_values.items():
            assert (value & model) == (seed_values[fact] & model), (
                stmt.location,
                fact,
            )


@pytest.mark.parametrize("builder", [figure1_with_model, device_spl])
def test_edge_mode_constructs_no_more_jump_functions(builder):
    product_line = builder()
    system = BddConstraintSystem()
    edge = solve_mode(product_line, TaintAnalysis, "edge", system)
    seed = solve_mode(product_line, TaintAnalysis, "seed", system)
    assert edge.stats["jump_functions"] <= seed.stats["jump_functions"]


def test_edge_mode_terminates_paths_early():
    """On figure1 with F<->G, the leak path dies during construction in
    edge mode (fewer jump functions than with the model ignored)."""
    product_line = figure1_with_model()
    system = BddConstraintSystem()
    edge = solve_mode(product_line, TaintAnalysis, "edge", system)
    ignore = solve_mode(product_line, TaintAnalysis, "ignore", system)
    assert edge.stats["jump_functions"] <= ignore.stats["jump_functions"]


def test_ignore_mode_reports_invalid_config_results():
    product_line = figure1_with_model()
    system = BddConstraintSystem()
    analysis = TaintAnalysis(product_line.icfg)
    ignore = SPLLift(analysis, feature_model=None, system=system, fm_mode="ignore").solve()
    (stmt, fact) = TaintAnalysis.sink_queries(analysis.icfg)[0]
    constraint = ignore.constraint_for(stmt, fact)
    # Without the model the leak is reported for the (invalid) product.
    assert constraint == system.parse("!F && G && !H")


def test_ignore_mode_drops_a_given_model():
    """Ignoring a given model solves exactly as giving none: the results
    carry no model and every result line is the same."""
    product_line = gpl_like()
    digests = []
    for feature_model in (product_line.feature_model, None):
        results = SPLLift(
            ReachingDefinitionsAnalysis(product_line.icfg),
            feature_model=feature_model,
            fm_mode="ignore",
        ).solve()
        assert results.feature_model.is_true
        digests.append(results.result_digest())
    assert digests[0] == digests[1]


def test_seed_mode_filters_in_value_phase():
    product_line = figure1_with_model()
    system = BddConstraintSystem()
    seed = solve_mode(product_line, TaintAnalysis, "seed", system)
    analysis = TaintAnalysis(product_line.icfg)
    (stmt, fact) = TaintAnalysis.sink_queries(analysis.icfg)[0]
    assert seed.constraint_for(stmt, fact).is_false


def test_invalid_mode_rejected():
    product_line = figure1_with_model()
    analysis = TaintAnalysis(product_line.icfg)
    with pytest.raises(ValueError):
        SPLLift(analysis, fm_mode="nonsense")
    assert set(FM_MODES) == {"edge", "seed", "ignore"}
