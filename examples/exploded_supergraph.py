#!/usr/bin/env python3
"""Render the exploded super graphs of the paper's Figures 3 and 5.

- Figure 3: the plain IFDS exploded super graph of the single product for
  ¬F ∧ G ∧ ¬H (taint analysis);
- Figure 5: the *lifted* graph over the entire product line, with feature
  constraints on the conditional edges.

Writes ``figure3.dot`` and ``figure5.dot`` to the working directory
(render with ``dot -Tpdf figure3.dot -o figure3.pdf`` if Graphviz is
available) and prints a textual summary.

Run:  python examples/exploded_supergraph.py
"""

from repro import TaintAnalysis
from repro.core import LiftedProblem
from repro.constraints import BddConstraintSystem
from repro.ifds import build_exploded_graph
from repro.ir import ICFG, lower_program
from repro.minijava import derive_product
from repro.spl import figure1


def main() -> None:
    product_line = figure1()

    # ------------------------------------------------------------------
    # Figure 3: the single product's plain exploded super graph.
    # ------------------------------------------------------------------
    product_ast = derive_product(product_line.ast, {"G"})
    product_icfg = ICFG.for_entry(lower_program(product_ast))
    product_graph = build_exploded_graph(TaintAnalysis(product_icfg))
    with open("figure3.dot", "w") as handle:
        handle.write(product_graph.to_dot("figure3"))
    print(
        f"figure3.dot: {len(product_graph.nodes)} nodes, "
        f"{len(product_graph.edges)} edges (product for ¬F ∧ G ∧ ¬H)"
    )

    # ------------------------------------------------------------------
    # Figure 5: the lifted graph over the whole product line.
    # ------------------------------------------------------------------
    system = BddConstraintSystem()
    analysis = TaintAnalysis(product_line.icfg)
    lifted = LiftedProblem(analysis, system)

    def constraint_label(edge) -> str:
        # Each lifted edge function is λc. c ∧ label; unconditional edges
        # (label true) stay unlabelled.
        constraint = edge.constraint
        return "" if constraint.is_true else str(constraint)

    lifted_graph = build_exploded_graph(lifted, edge_labels=constraint_label)
    with open("figure5.dot", "w") as handle:
        handle.write(lifted_graph.to_dot("figure5"))
    print(
        f"figure5.dot: {len(lifted_graph.nodes)} nodes, "
        f"{len(lifted_graph.edges)} edges (whole product line, lifted)"
    )

    print("\nConditional edges of the lifted graph (Figure 5):")
    for edge in lifted_graph.edges:
        if edge.label:
            print(f"  {edge}")


if __name__ == "__main__":
    main()
