"""Building and rendering the exploded super graph.

The IFDS framework reduces dataflow to reachability in the *exploded super
graph*: one node per (statement, fact) pair, one edge per pointwise flow
(Section 2.1, Figure 3 of the paper).  This module materializes the graph
reachable from the seeds — for visualization (Graphviz DOT, like the
paper's Figures 3 and 5) and for tests that inspect the structure.

An IDE problem's flows map each target to its edge function; pass
``edge_labels`` to render that function as the edge's label.  For a lifted
problem that is the edge's feature constraint, reproducing Figure 5's
conditional edges.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple, TypeVar

from repro.ifds.problem import IFDSProblem, ZERO
from repro.ir.instructions import Instruction

__all__ = ["ExplodedEdge", "ExplodedSuperGraph", "build_exploded_graph"]

D = TypeVar("D", bound=Hashable)

Node = Tuple[Instruction, Hashable]


class ExplodedEdge:
    """One edge of the exploded super graph."""

    __slots__ = ("source", "target", "kind", "label")

    def __init__(
        self, source: Node, target: Node, kind: str, label: str = ""
    ) -> None:
        self.source = source
        self.target = target
        self.kind = kind  # "normal" | "call" | "return" | "call-to-return"
        self.label = label

    def __repr__(self) -> str:
        suffix = f" [{self.label}]" if self.label else ""
        return f"{self.source} -{self.kind}-> {self.target}{suffix}"


class ExplodedSuperGraph:
    """The materialized exploded super graph (reachable part)."""

    def __init__(self) -> None:
        self.nodes: Set[Node] = set()
        self.edges: List[ExplodedEdge] = []

    def add_edge(self, edge: ExplodedEdge) -> None:
        self.nodes.add(edge.source)
        self.nodes.add(edge.target)
        self.edges.append(edge)

    def successors(self, node: Node) -> List[Node]:
        return [edge.target for edge in self.edges if edge.source == node]

    def to_dot(self, name: str = "exploded") -> str:
        """Graphviz DOT like the paper's Figure 3/5 rendering."""
        ids: Dict[Node, str] = {}

        def node_id(node: Node) -> str:
            if node not in ids:
                ids[node] = f"n{len(ids)}"
            return ids[node]

        def node_label(node: Node) -> str:
            stmt, fact = node
            fact_text = "0" if fact is ZERO else str(fact)
            return f"{stmt.location}\\n{fact_text}"

        lines = [f"digraph {name} {{", "  rankdir=TB;", "  node [shape=circle];"]
        # Cluster nodes per statement so the layout resembles the paper.
        by_stmt: Dict[Instruction, List[Node]] = {}
        for node in sorted(
            self.nodes, key=lambda n: (n[0].location, str(n[1]))
        ):
            by_stmt.setdefault(node[0], []).append(node)
        for index, (stmt, nodes) in enumerate(by_stmt.items()):
            lines.append(f"  subgraph cluster_{index} {{")
            lines.append(f'    label="{stmt}";')
            for node in nodes:
                lines.append(
                    f'    {node_id(node)} [label="'
                    f'{"0" if node[1] is ZERO else node[1]}"];'
                )
            lines.append("  }")
        styles = {
            "normal": "solid",
            "call": "bold",
            "return": "bold",
            "call-to-return": "solid",
        }
        for edge in self.edges:
            attributes = [f"style={styles.get(edge.kind, 'solid')}"]
            if edge.label:
                attributes.append(f'label="{edge.label}"')
            lines.append(
                f"  {node_id(edge.source)} -> {node_id(edge.target)} "
                f"[{', '.join(attributes)}];"
            )
        lines.append("}")
        return "\n".join(lines)


def build_exploded_graph(
    problem: IFDSProblem[D],
    edge_labels: Optional[Callable[[Any], str]] = None,
) -> ExplodedSuperGraph:
    """Materialize the exploded super graph reachable from the seeds.

    ``edge_labels(edge_function)`` may supply a label per edge of an IDE
    problem, from the function its flow maps the edge's target to (the
    lifted problems' constraints, for example).
    """
    icfg = problem.icfg
    graph = ExplodedSuperGraph()
    worklist: List[Node] = []
    seen: Set[Node] = set()

    def visit(node: Node) -> None:
        if node not in seen:
            seen.add(node)
            worklist.append(node)

    def connect(node: Node, kind: str, succ: Instruction, targets) -> None:
        for target_fact in targets:
            label = "" if edge_labels is None else edge_labels(targets[target_fact])
            graph.add_edge(ExplodedEdge(node, (succ, target_fact), kind, label))
            visit((succ, target_fact))

    for stmt, facts in problem.initial_seeds().items():
        for fact in facts:
            visit((stmt, fact))

    while worklist:
        node = worklist.pop()
        stmt, fact = node
        if icfg.is_call(stmt):
            for callee in icfg.callees_of(stmt):
                flow = problem.call_flow(stmt, callee)
                connect(
                    node, "call", icfg.start_point_of(callee), flow.compute_targets(fact)
                )
            for return_site in icfg.return_sites_of(stmt):
                flow = problem.call_to_return_flow(stmt, return_site)
                connect(node, "call-to-return", return_site, flow.compute_targets(fact))
            continue
        if icfg.is_exit(stmt):
            method = icfg.method_of(stmt)
            for call in icfg.callers_of(method):
                for return_site in icfg.return_sites_of(call):
                    flow = problem.return_flow(call, method, stmt, return_site)
                    connect(node, "return", return_site, flow.compute_targets(fact))
            # fall through (annotated returns in lifted graphs)
        for succ in icfg.successors_of(stmt):
            flow = problem.normal_flow(stmt, succ)
            connect(node, "normal", succ, flow.compute_targets(fact))
    return graph
