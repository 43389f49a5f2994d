"""Tests for the ``spllift`` command-line tool."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.featuremodel import render_feature_model
from repro.obs.flight import FlightRecorder
from repro.spl.benchmarks import gpl_like
from repro.spl.edits import apply_scripted_edit
from repro.spl.examples import FIGURE1_SOURCE

FM_TEXT = """
featuremodel fig1
root Fig1 { optional F optional G optional H }
"""

DEVICE_FM = """
featuremodel fig1
root Fig1 { optional F optional G optional H }
constraint F <-> G;
"""


@pytest.fixture
def spl_file(tmp_path):
    path = tmp_path / "fig1.mj"
    path.write_text(FIGURE1_SOURCE)
    return str(path)


@pytest.fixture
def fm_file(tmp_path):
    path = tmp_path / "fig1.fm"
    path.write_text(FM_TEXT)
    return str(path)


class TestAnalyze:
    def test_taint_finds_leak(self, spl_file, fm_file, capsys):
        rc = main(["analyze", spl_file, "--analysis", "taint", "--feature-model", fm_file])
        out = capsys.readouterr().out
        assert rc == 1  # findings present
        assert "!F & G & !H" in out

    def test_taint_without_model(self, spl_file, capsys):
        rc = main(["analyze", spl_file, "--analysis", "taint"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "!F & G & !H" in out

    def test_constraining_model_removes_finding(self, spl_file, tmp_path, capsys):
        fm = tmp_path / "strict.fm"
        fm.write_text(DEVICE_FM)
        rc = main(
            ["analyze", spl_file, "--analysis", "taint", "--feature-model", str(fm)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "no findings" in out

    def test_fm_mode_ignore(self, spl_file, tmp_path, capsys):
        fm = tmp_path / "strict.fm"
        fm.write_text(DEVICE_FM)
        rc = main(
            [
                "analyze",
                spl_file,
                "--analysis",
                "taint",
                "--feature-model",
                str(fm),
                "--fm-mode",
                "ignore",
            ]
        )
        assert rc == 1  # without the model the leak is reported

    def test_uninit_analysis(self, tmp_path, capsys):
        source = tmp_path / "u.mj"
        source.write_text(
            "class Main { void main() { int u;\n#ifdef (Init)\nu = 1;\n#endif\nprint(u); } }"
        )
        rc = main(["analyze", str(source), "--analysis", "uninit"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "!Init" in out

    def test_stats_flag(self, spl_file, capsys):
        main(["analyze", spl_file, "--analysis", "taint", "--stats"])
        out = capsys.readouterr().out
        assert "jump_functions" in out

    def test_rd_informational(self, spl_file, capsys):
        rc = main(["analyze", spl_file, "--analysis", "rd"])
        assert rc == 1
        assert "@" in capsys.readouterr().out

    def test_worklist_order_flag_keeps_findings(self, spl_file, fm_file, capsys):
        main(["analyze", spl_file, "--analysis", "taint", "--feature-model", fm_file])
        default_out = capsys.readouterr().out
        for order in ("fifo", "lifo", "random", "rpo"):
            rc = main(
                [
                    "analyze",
                    spl_file,
                    "--analysis",
                    "taint",
                    "--feature-model",
                    fm_file,
                    "--worklist-order",
                    order,
                ]
            )
            assert rc == 1
            assert capsys.readouterr().out == default_out

    def test_worklist_order_reported_in_stats(self, spl_file, capsys):
        main(
            [
                "analyze",
                spl_file,
                "--analysis",
                "taint",
                "--worklist-order",
                "fifo",
                "--stats",
            ]
        )
        assert "worklist_order: fifo" in capsys.readouterr().out

    def test_default_worklist_order_is_rpo(self, spl_file, capsys):
        main(["analyze", spl_file, "--analysis", "taint", "--stats"])
        assert "worklist_order: rpo" in capsys.readouterr().out

    def test_bad_worklist_order_rejected(self, spl_file, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", spl_file, "--analysis", "taint", "--worklist-order", "xyz"])

    def test_parallel_env_leaves_single_solve_alone(
        self, tmp_path, capsys, monkeypatch
    ):
        """$SPLLIFT_PARALLEL sizes job fan-out only: one analysis is one
        in-process solve, with the same findings and the same counters."""
        source = tmp_path / "uninit.mj"
        source.write_text(
            "class Main { void main() { int u; int v;\n#ifdef (Init)\nu = 1;\n"
            "#endif\nv = 2;\nprint(u); print(v); } }"
        )
        argv = ["analyze", str(source), "--analysis", "uninit", "--stats"]
        monkeypatch.delenv("SPLLIFT_PARALLEL", raising=False)
        rc = main(argv)
        sequential = capsys.readouterr()
        monkeypatch.setenv("SPLLIFT_PARALLEL", "4")
        assert main(argv) == rc
        assert capsys.readouterr() == sequential


@pytest.fixture
def gpl_files(tmp_path):
    """GPL-like's source and canonical feature model, as files."""
    product_line = gpl_like()
    source = tmp_path / "gpl.mj"
    source.write_text(product_line.source)
    model = tmp_path / "gpl.fm"
    model.write_text(render_feature_model(product_line.feature_model))
    return source, model


def _spllift_process(args, hash_seed):
    """Run ``spllift ARGS`` in a fresh interpreter at ``PYTHONHASHSEED``."""
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src_root)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        env=env,
        timeout=120,
    )


class TestAnalyzeOutputOrder:
    @pytest.mark.parametrize("analysis", ("types", "rd"))
    def test_stdout_independent_of_hash_seed(self, gpl_files, analysis):
        """The informational analyses list every fact at method exits;
        the listing must not follow set iteration order, which
        PYTHONHASHSEED permutes from one process to the next."""
        source, model = gpl_files
        args = [
            "analyze", str(source), "--feature-model", str(model),
            "--analysis", analysis,
        ]
        stdouts = []
        for seed in ("0", "1"):
            done = _spllift_process(args, seed)
            assert done.returncode == 1, done.stderr.decode()
            stdouts.append(done.stdout)
        assert stdouts[0] == stdouts[1]


class TestExactCounters:
    """At one hash seed the solver does the same work in every process.

    Facts, constraints and methods hash without object addresses, and
    the solvers iterate insertion-ordered tables, so every counter of the
    ``--stats`` block repeats exactly.  Across hash seeds it need not:
    string hashes, and with them the order of fact sets, follow the seed.
    """

    @staticmethod
    def _stats_block(done) -> bytes:
        assert done.returncode == 1, done.stderr.decode()
        _, marker, block = done.stdout.partition(b"\nsolver statistics:\n")
        assert marker and block
        return block

    @pytest.mark.parametrize("analysis", ("types", "rd"))
    def test_cold_stats_identical_across_processes(self, gpl_files, analysis):
        source, model = gpl_files
        args = [
            "analyze", str(source), "--feature-model", str(model),
            "--analysis", analysis, "--stats",
        ]
        blocks = {self._stats_block(_spllift_process(args, "0")) for _ in range(3)}
        assert len(blocks) == 1

    def test_warm_incremental_stats_identical_across_processes(
        self, gpl_files, tmp_path
    ):
        source, model = gpl_files
        populated = tmp_path / "populated"
        cold = _spllift_process(
            [
                "analyze", str(source), "--feature-model", str(model),
                "--analysis", "rd", "--incremental-cache", str(populated),
            ],
            "0",
        )
        assert cold.returncode == 1, cold.stderr.decode()
        edited = tmp_path / "edited.mj"
        edited.write_text(apply_scripted_edit(source.read_text(), "C4.c4_m2"))
        blocks = set()
        for run in range(3):
            # Each warm re-solve stores its fresh summaries back, so each
            # starts from its own copy of the populated store.
            store = tmp_path / f"store{run}"
            shutil.copytree(populated, store)
            done = _spllift_process(
                [
                    "analyze", str(edited), "--feature-model", str(model),
                    "--analysis", "rd", "--incremental-cache", str(store),
                    "--stats",
                ],
                "0",
            )
            reused = re.search(rb"summaries: (\d+) reused", done.stderr)
            assert reused and int(reused.group(1)) > 0, done.stderr.decode()
            blocks.add(self._stats_block(done))
        assert len(blocks) == 1


class TestClosedStdout:
    """A reader that leaves early (``spllift … | head``) is no user error:
    the command ends with 141 (128 + SIGPIPE) and writes no stderr."""

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["analyze", "postmortem"])
    def test_closed_pipe_ends_quietly(self, spl_file, tmp_path, command, unbuffered):
        if command == "analyze":
            argv = ["analyze", spl_file, "--analysis", "taint"]
        else:
            recorder = FlightRecorder(capacity=8)
            recorder.record("pulse", "ide/phase1", pops=256)
            dump = tmp_path / "dump.json"
            dump.write_text(json.dumps(recorder.dump("unit test")))
            argv = ["obs", "postmortem", str(dump)]
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src_root, PYTHONUNBUFFERED=unbuffered)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.stderr.decode() == ""
        assert done.returncode == 141


class TestEngineFlag:
    def test_datalog_engine_same_findings(self, spl_file, fm_file, capsys):
        main(["analyze", spl_file, "--analysis", "taint", "--feature-model", fm_file])
        tabulate_out = capsys.readouterr().out
        rc = main(
            [
                "analyze",
                spl_file,
                "--analysis",
                "taint",
                "--feature-model",
                fm_file,
                "--engine",
                "datalog",
            ]
        )
        assert rc == 1
        assert capsys.readouterr().out == tabulate_out

    def test_datalog_stats_reported(self, spl_file, capsys):
        main(["analyze", spl_file, "--analysis", "taint", "--engine", "datalog", "--stats"])
        out = capsys.readouterr().out
        assert "engine: datalog" in out
        assert "rules_fired" in out

    def test_unknown_engine_clean_error(self, spl_file, capsys):
        rc = main(["analyze", spl_file, "--analysis", "taint", "--engine", "bogus"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("spllift: error: ")
        assert "bogus" in err
        assert len(err.strip().splitlines()) == 1  # one line, no traceback

    def test_datalog_rejects_incremental_cache(self, spl_file, tmp_path, capsys):
        rc = main(
            [
                "analyze",
                spl_file,
                "--analysis",
                "taint",
                "--engine",
                "datalog",
                "--incremental-cache",
                str(tmp_path / "inc.db"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("spllift: error: ")
        assert "--incremental-cache" in err
        assert len(err.strip().splitlines()) == 1


class TestRun:
    def test_run_configuration(self, spl_file, capsys):
        rc = main(["run", spl_file, "--config", "G"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "42  [tainted]" in captured.out

    def test_run_empty_configuration(self, spl_file, capsys):
        rc = main(["run", spl_file, "--config", ""])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.strip() == "0"

    def test_run_reports_uninit(self, tmp_path, capsys):
        source = tmp_path / "u.mj"
        source.write_text("class Main { void main() { int u; print(u); } }")
        rc = main(["run", str(source)])
        captured = capsys.readouterr()
        assert "uninitialized read" in captured.err

    def test_run_incomplete_execution(self, tmp_path, capsys):
        source = tmp_path / "loop.mj"
        source.write_text(
            "class Main { void main() { int i = 0; while (i < 1) { i = 0; } } }"
        )
        rc = main(["run", str(source), "--fuel", "100"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "stopped early" in captured.err


class TestInterfacesAndMetrics:
    def test_interfaces(self, spl_file, capsys):
        rc = main(["interfaces", spl_file, "--feature", "G"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "emergent interface of feature 'G'" in out

    def test_metrics(self, spl_file, fm_file, capsys):
        rc = main(["metrics", spl_file, "--feature-model", fm_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "features (reachable):     3" in out
        assert "configurations (valid):     8" in out

    def test_metrics_without_model(self, spl_file, capsys):
        rc = main(["metrics", spl_file])
        assert rc == 0


class TestMoreAnalyses:
    def test_nullness_analysis(self, tmp_path, capsys):
        source = tmp_path / "n.mj"
        source.write_text(
            "class Box { int get() { return 1; } }\n"
            "class Main { void main() {\n"
            "Box b = new Box();\n"
            "#ifdef (Drop)\nb = null;\n#endif\n"
            "int x = b.get(); } }"
        )
        rc = main(["analyze", str(source), "--analysis", "nullness"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "Drop" in out

    def test_typestate_analysis(self, tmp_path, capsys):
        source = tmp_path / "t.mj"
        source.write_text(
            "class File { int open() { return 0; } int read() { return 0; }"
            " int write() { return 0; } int close() { return 0; } }\n"
            "class Main { void main() {\n"
            "File f = new File();\n"
            "#ifdef (Open)\nf.open();\n#endif\n"
            "int x = f.read(); } }"
        )
        rc = main(["analyze", str(source), "--analysis", "typestate"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "!Open" in out

    def test_types_analysis(self, spl_file, capsys):
        rc = main(["analyze", spl_file, "--analysis", "types"])
        assert rc == 1  # informational facts at exits


class TestTelemetry:
    """The ``--trace``/``--metrics`` surfaces and ``trace summary``."""

    def test_analyze_trace_writes_chrome_trace(
        self, spl_file, tmp_path, capsys
    ):
        import json

        trace_path = tmp_path / "trace.json"
        main(
            [
                "analyze",
                spl_file,
                "--analysis",
                "taint",
                "--trace",
                str(trace_path),
            ]
        )
        events = json.loads(trace_path.read_text())
        names = {event["name"] for event in events}
        assert {"spllift/solve", "ide/solve", "ide/phase1/tabulation"} <= names
        begins = sum(1 for event in events if event["ph"] == "B")
        ends = sum(1 for event in events if event["ph"] == "E")
        assert begins == ends and begins > 0
        # The CLI tears tracing down after the run (in-process callers).
        from repro.obs import runtime as obs

        assert not obs.tracer().enabled

    #: The lifted pass's stages, one span each, in the order they run.
    STAGES = [
        "frontend/parse",
        "frontend/lower",
        "frontend/icfg",
        "spllift/lift",
        "spllift/solve",
    ]

    def _begun(self, trace_path):
        return [
            event["name"]
            for event in json.loads(trace_path.read_text())
            if event["ph"] == "B"
        ]

    def test_analyze_trace_names_each_stage(self, spl_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        main(["analyze", spl_file, "--trace", str(trace_path)])
        begun = self._begun(trace_path)
        assert [name for name in begun if name in self.STAGES] == self.STAGES
        assert begun[-1] == "cli/findings"

    def test_batch_trace_names_each_stage(self, tmp_path, capsys):
        manifest = tmp_path / "batch.json"
        manifest.write_text(
            json.dumps({"jobs": [{"source": FIGURE1_SOURCE, "analysis": "taint"}]})
        )
        trace_path = tmp_path / "trace.json"
        rc = main(
            [
                "batch",
                str(manifest),
                "--no-pool",
                "--no-store",
                "--trace",
                str(trace_path),
            ]
        )
        assert rc == 0
        begun = self._begun(trace_path)
        assert [name for name in begun if name in self.STAGES] == self.STAGES
        assert "service/build_record" in begun

    def test_batch_trace_names_store_put(self, tmp_path, capsys):
        manifest = tmp_path / "batch.json"
        manifest.write_text(
            json.dumps({"jobs": [{"source": FIGURE1_SOURCE, "analysis": "taint"}]})
        )
        trace_path = tmp_path / "trace.json"
        argv = [
            "batch",
            str(manifest),
            "--no-pool",
            "--cache-dir",
            str(tmp_path / "store"),
            "--trace",
            str(trace_path),
        ]
        assert main(argv) == 0
        begun = self._begun(trace_path)
        assert begun.count("service/store_put") == 1
        assert begun.index("service/build_record") < begun.index("service/store_put")
        # Served from the store: nothing computed, nothing put.
        assert main(argv) == 0
        assert "service/store_put" not in self._begun(trace_path)

    def test_analyze_metrics_report(self, spl_file, tmp_path, capsys):
        import json

        metrics_path = tmp_path / "metrics.json"
        main(
            [
                "analyze",
                spl_file,
                "--analysis",
                "taint",
                "--metrics",
                str(metrics_path),
            ]
        )
        report = json.loads(metrics_path.read_text())
        assert report["schema"] == "spllift-metrics/v1"
        assert report["metrics"]["counters"]["ide.solver.jump_functions"] > 0
        # BDD table-health gauges ride along with the solver stats.
        gauges = report["metrics"]["gauges"]
        assert 0.0 < gauges["bdd.unique_load_factor"] <= 1.0
        assert 0.0 <= gauges["bdd.apply_cache_occupancy"] <= 1.0

    def test_trace_summary_breakdown(self, spl_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        main(
            [
                "analyze",
                spl_file,
                "--analysis",
                "uninit",
                "--trace",
                str(trace_path),
            ]
        )
        capsys.readouterr()
        rc = main(["trace", "summary", str(trace_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ide/phase1/tabulation" in out
        assert "top-level span coverage:" in out

    def test_trace_summary_folded_export(self, spl_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        main(
            [
                "analyze",
                spl_file,
                "--analysis",
                "uninit",
                "--trace",
                str(trace_path),
            ]
        )
        capsys.readouterr()
        rc = main(["trace", "summary", str(trace_path), "--folded"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert lines, "folded export must produce at least one stack"
        for line in lines:
            stack, sep, value = line.rpartition(" ")
            assert sep and stack and value.isdigit()
            assert all(frame for frame in stack.split(";"))
        assert any(line.startswith("spllift/solve;") for line in lines)
        # The folded file passes the format gate in scripts/check_trace.py.
        folded_path = tmp_path / "trace.folded"
        folded_path.write_text(out)
        script = Path(__file__).resolve().parents[1] / "scripts" / "check_trace.py"
        result = subprocess.run(
            [sys.executable, str(script), str(folded_path), "--folded"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_trace_summary_rejects_eventless_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("[]\n")
        rc = main(["trace", "summary", str(empty)])
        assert rc == 2
        assert "no trace events" in capsys.readouterr().err
