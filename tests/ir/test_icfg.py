"""Tests for the inter-procedural CFG."""

import pytest

from repro.core.icfg import LiftedICFG
from repro.ir import Goto, ICFG, If, Invoke, IRError, Print, Return, lower_program
from repro.ir.icfg import CALL, EXIT, EXIT_WITH_SUCCESSORS, NORMAL
from repro.minijava import parse_program
from repro.spl.examples import FIGURE1_SOURCE


def icfg_for(source, entry="Main.main"):
    return ICFG.for_entry(lower_program(parse_program(source)), entry)


class TestSuccessors:
    def test_straightline(self):
        icfg = icfg_for(FIGURE1_SOURCE)
        main = icfg.program.method("Main.main")
        for instr in main.instructions[:-1]:
            succs = icfg.successors_of(instr)
            assert succs == (main.instructions[instr.index + 1],)

    def test_return_has_no_successors(self):
        icfg = icfg_for(FIGURE1_SOURCE)
        for method in icfg.reachable_methods:
            for exit_point in icfg.exit_points_of(method):
                assert icfg.successors_of(exit_point) == ()

    def test_if_successor_order(self):
        icfg = icfg_for(
            "class Main { void main() { int x = 1; if (x < 2) { x = 3; } print(x); } }"
        )
        main = icfg.program.method("Main.main")
        if_instr = next(i for i in main.instructions if isinstance(i, If))
        fall_through, target = icfg.successors_of(if_instr)
        assert fall_through is main.instructions[if_instr.index + 1]
        assert target is main.instructions[if_instr.target]

    def test_goto_single_successor(self):
        icfg = icfg_for(
            "class Main { void main() { int x = 0; while (x < 3) { x = x + 1; } } }"
        )
        main = icfg.program.method("Main.main")
        for goto in (i for i in main.instructions if isinstance(i, Goto)):
            assert icfg.successors_of(goto) == (main.instructions[goto.target],)


class TestClassification:
    def test_call_and_exit_classification(self):
        icfg = icfg_for(FIGURE1_SOURCE)
        calls = [i for i in icfg.reachable_instructions() if icfg.is_call(i)]
        assert len(calls) == 1
        assert all(isinstance(c, Invoke) for c in calls)
        exits = [i for i in icfg.reachable_instructions() if icfg.is_exit(i)]
        assert all(isinstance(e, Return) for e in exits)

    def test_return_sites(self):
        icfg = icfg_for(FIGURE1_SOURCE)
        call = next(i for i in icfg.reachable_instructions() if icfg.is_call(i))
        (site,) = icfg.return_sites_of(call)
        assert isinstance(site, Print)

    def test_kinds_follow_each_graph_successors(self):
        """A lifted CFG's annotated return falls through, so it is an exit
        with successors there and a plain exit in the unlifted graph."""
        icfg = icfg_for(
            "class Main { void main() { int y = choose(1); print(y); }"
            " int choose(int p) { #ifdef (R) return 0; #endif return p; } }"
        )
        lifted = LiftedICFG(icfg)
        choose = icfg.program.method("Main.choose")
        annotated, last = (i for i in choose.instructions if isinstance(i, Return))
        call = next(i for i in icfg.reachable_instructions() if isinstance(i, Invoke))
        show = next(i for i in icfg.reachable_instructions() if isinstance(i, Print))
        assert icfg.kinds[annotated] == icfg.kinds[last] == EXIT
        assert lifted.kinds[annotated] == EXIT_WITH_SUCCESSORS
        assert lifted.kinds[last] == EXIT
        assert icfg.kinds[call] == lifted.kinds[call] == CALL
        assert icfg.kinds[show] == lifted.kinds[show] == NORMAL
        assert set(icfg.kinds) == set(icfg.reachable_instructions())

    def test_callees(self):
        icfg = icfg_for(FIGURE1_SOURCE)
        call = next(i for i in icfg.reachable_instructions() if icfg.is_call(i))
        assert [m.qualified_name for m in icfg.callees_of(call)] == ["Main.foo"]

    def test_method_of_and_start_point(self):
        icfg = icfg_for(FIGURE1_SOURCE)
        foo = icfg.program.method("Main.foo")
        assert icfg.method_of(foo.instructions[1]) is foo
        assert icfg.start_point_of(foo) is foo.instructions[0]

    def test_call_sites_in(self):
        icfg = icfg_for(FIGURE1_SOURCE)
        main = icfg.program.method("Main.main")
        assert len(list(icfg.call_sites_in(main))) == 1


class TestMetrics:
    def test_instruction_count(self):
        icfg = icfg_for(FIGURE1_SOURCE)
        assert icfg.instruction_count() == sum(
            len(m.instructions) for m in icfg.reachable_methods
        )

    def test_annotated_feature_names(self):
        icfg = icfg_for(FIGURE1_SOURCE)
        assert icfg.annotated_feature_names() == {"F", "G", "H"}

    def test_unreachable_annotations_not_counted(self):
        source = """
        class Main {
            void main() { int x = 1; }
            int dead() {
                int d = 0;
                #ifdef (DeadFeature) d = 1; #endif
                return d;
            }
        }
        """
        icfg = icfg_for(source)
        assert icfg.annotated_feature_names() == frozenset()


class TestErrors:
    def test_missing_entry(self):
        with pytest.raises(IRError):
            icfg_for("class Main { void main() { } }", entry="Main.nope")

    def test_no_entry_points(self):
        program = lower_program(parse_program("class Main { void main() { } }"))
        with pytest.raises(IRError):
            ICFG(program, ())

    def test_call_without_targets(self):
        # a call to a method that only exists under an annotation that was
        # never compiled in is impossible by construction; simulate a dead
        # hierarchy via an interface-less class with no implementation by
        # removing the method from the program after lowering
        program = lower_program(
            parse_program(
                "class A { int m() { return 1; } } "
                "class Main { void main() { A a = new A(); int x = a.m(); } }"
            )
        )
        del program.classes["A"].methods["m"]
        with pytest.raises(IRError):
            ICFG(program, (program.method("Main.main"),))
