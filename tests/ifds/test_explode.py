"""Unit tests for the exploded-super-graph materialization."""

import pytest

from repro.analyses import LocalFact, TaintAnalysis
from repro.ide import ifds_as_ide
from repro.ifds import ZERO, build_exploded_graph
from repro.ifds.explode import ExplodedEdge
from repro.ir import ICFG, lower_program
from repro.minijava import parse_program


def graph_for(source):
    icfg = ICFG.for_entry(lower_program(parse_program(source)))
    return icfg, build_exploded_graph(TaintAnalysis(icfg))


class TestStructure:
    SOURCE = """
    class Main {
        void main() { int x = secret(); int y = pass(x); print(y); }
        int pass(int p) { return p; }
    }
    """

    def test_zero_nodes_at_every_reachable_statement(self):
        icfg, graph = graph_for(self.SOURCE)
        for stmt in icfg.reachable_instructions():
            assert (stmt, ZERO) in graph.nodes, stmt.location

    def test_taint_nodes_present(self):
        icfg, graph = graph_for(self.SOURCE)
        facts = {fact for _, fact in graph.nodes}
        assert LocalFact("x") in facts
        assert LocalFact("p") in facts
        assert LocalFact("y") in facts

    def test_edge_kinds(self):
        icfg, graph = graph_for(self.SOURCE)
        kinds = {edge.kind for edge in graph.edges}
        assert kinds == {"normal", "call", "return", "call-to-return"}

    def test_successors(self):
        icfg, graph = graph_for(self.SOURCE)
        start = icfg.entry_points[0].start_point
        succs = graph.successors((start, ZERO))
        assert succs  # zero flows on

    def test_call_edge_maps_actual_to_formal(self):
        icfg, graph = graph_for(self.SOURCE)
        call_edges = [e for e in graph.edges if e.kind == "call"]
        mapped = {
            (str(e.source[1]), str(e.target[1])) for e in call_edges
        }
        assert ("x", "p") in mapped

    def test_return_edge_maps_back(self):
        icfg, graph = graph_for(self.SOURCE)
        return_edges = [e for e in graph.edges if e.kind == "return"]
        mapped = {
            (str(e.source[1]), str(e.target[1])) for e in return_edges
        }
        assert ("p", "y") in mapped

    def test_edge_labels_callback(self):
        """The callback labels each edge from the function its IDE flow
        maps the target to: the identity in the binary embedding."""
        icfg = ICFG.for_entry(
            lower_program(parse_program(self.SOURCE))
        )
        problem = ifds_as_ide(TaintAnalysis(icfg))
        graph = build_exploded_graph(
            problem, edge_labels=lambda edge: type(edge).__name__
        )
        assert graph.edges
        assert all(edge.label == "IdentityEdge" for edge in graph.edges)

    def test_dot_rendering(self):
        icfg, graph = graph_for(self.SOURCE)
        dot = graph.to_dot("demo")
        assert dot.startswith("digraph demo")
        assert "subgraph cluster_0" in dot
        assert dot.count("->") == len(graph.edges)

    def test_edge_repr(self):
        edge = ExplodedEdge(("s", ZERO), ("t", ZERO), "normal", "F")
        assert "normal" in repr(edge)
        assert "[F]" in repr(edge)


class TestGraphVsSolver:
    def test_graph_reachability_equals_solver_results(self):
        """Node (s, d) is in the materialized graph iff the solver reports
        d at s — graph reachability IS the IFDS solution (Section 2.1)."""
        from repro.ifds import IFDSSolver

        source = """
        class Main {
            void main() {
                int x = secret();
                int y = 0;
                int c = nondet();
                if (c < 1) { y = x; }
                print(y);
            }
        }
        """
        icfg = ICFG.for_entry(lower_program(parse_program(source)))
        problem = TaintAnalysis(icfg)
        graph = build_exploded_graph(problem)
        results = IFDSSolver(problem).solve()
        for stmt in icfg.reachable_instructions():
            solver_facts = results.at(stmt, include_zero=True)
            graph_facts = {
                fact for node_stmt, fact in graph.nodes if node_stmt is stmt
            }
            assert solver_facts == graph_facts, stmt.location
