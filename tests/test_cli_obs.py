"""Tests for the ``spllift obs`` subcommands, the trace-file error
contract, and batch progress/event-log wiring."""

import json

import pytest

from repro.cli import main
from repro.obs.flight import FlightRecorder
from repro.spl.examples import FIGURE1_SOURCE


@pytest.fixture
def dump_file(tmp_path):
    recorder = FlightRecorder(capacity=16)
    recorder.note_job({"label": "fig1", "analysis": "taint"})
    recorder.span_begin("pool/task")
    recorder.record("pulse", "ide/phase1", pops=256)
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(recorder.dump("timeout after 5s")))
    return str(path)


@pytest.fixture
def crash_manifest(tmp_path):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({
        "jobs": [
            {"source": FIGURE1_SOURCE, "analysis": "taint", "label": "fig1"},
            {
                "source": FIGURE1_SOURCE,
                "analysis": "uninit",
                "label": "fig1",
                "options": {"_test_crash_always": True},
            },
        ]
    }))
    return str(path)


def non_utf8_file(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    return str(path)


def not_utf8_error(path):
    return (
        f"spllift: error: cannot read {path}: not UTF-8 text "
        "(byte 0xff at offset 0)\n"
    )


def metrics_file(tmp_path, name, counters):
    path = tmp_path / name
    path.write_text(json.dumps({
        "schema": "spllift-metrics/v1",
        "metrics": {"counters": counters, "gauges": {}, "histograms": {}},
    }))
    return str(path)


class TestPostmortem:
    def test_renders_raw_dump(self, dump_file, capsys):
        rc = main(["obs", "postmortem", dump_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reason: timeout after 5s" in out
        assert "in-flight job: fig1" in out
        assert "pool/task" in out

    def test_renders_crash_report(self, crash_manifest, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main([
            "batch", crash_manifest, "--no-store", "--retries", "0",
            "--report", str(report),
        ])
        assert rc == 1  # the crashing job fails
        capsys.readouterr()
        rc = main(["obs", "postmortem", str(report)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "worker crashed (exit code -9" in out
        assert "analysis=uninit" in out
        assert "open spans at death" in out

    def test_error_contract_on_bad_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "nope"}')
        rc = main(["obs", "postmortem", str(bogus)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("spllift: error:")
        assert len(err.strip().splitlines()) == 1

    def test_error_contract_on_missing_file(self, tmp_path, capsys):
        rc = main(["obs", "postmortem", str(tmp_path / "nope.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("spllift: error:")

    def test_error_contract_on_non_utf8_file(self, tmp_path, capsys):
        path = non_utf8_file(tmp_path)
        rc = main(["obs", "postmortem", path])
        assert rc == 2
        assert capsys.readouterr().err == not_utf8_error(path)


class TestObsDiff:
    def test_ok_within_threshold(self, tmp_path, capsys):
        a = metrics_file(tmp_path, "a.json", {"ide.jumps": 100})
        b = metrics_file(tmp_path, "b.json", {"ide.jumps": 105})
        rc = main(["obs", "diff", a, b])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out

    def test_drift_fails(self, tmp_path, capsys):
        a = metrics_file(tmp_path, "a.json", {"ide.jumps": 100})
        b = metrics_file(tmp_path, "b.json", {"ide.jumps": 200})
        rc = main(["obs", "diff", a, b])
        out = capsys.readouterr().out
        assert rc == 1
        assert "DRIFT" in out

    def test_threshold_override_by_pattern(self, tmp_path, capsys):
        a = metrics_file(tmp_path, "a.json", {"ide.jumps": 100})
        b = metrics_file(tmp_path, "b.json", {"ide.jumps": 200})
        rc = main([
            "obs", "diff", a, b, "--threshold-for", "ide.*=2.0",
        ])
        assert rc == 0

    def test_error_contract(self, tmp_path, capsys):
        a = metrics_file(tmp_path, "a.json", {"ide.jumps": 1})
        rc = main(["obs", "diff", a, str(tmp_path / "nope.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("spllift: error:")

    def test_error_contract_on_non_utf8_file(self, tmp_path, capsys):
        a = metrics_file(tmp_path, "a.json", {"ide.jumps": 1})
        path = non_utf8_file(tmp_path)
        rc = main(["obs", "diff", a, path])
        assert rc == 2
        assert capsys.readouterr().err == not_utf8_error(path)


class TestObsTail:
    def test_renders_formatted_lines(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text(
            '{"ts": 1.0, "level": "info", "event": "job.start", "pid": 7}\n'
            '{"ts": 2.0, "level": "error", "event": "job.failed", "pid": 7}\n'
        )
        rc = main(["obs", "tail", str(log)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "job.start" in out
        assert "job.failed" in out
        assert "pid=7" in out

    def test_lines_limit(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text("".join(
            json.dumps({"ts": float(i), "event": f"e{i}"}) + "\n"
            for i in range(10)
        ))
        rc = main(["obs", "tail", str(log), "--lines", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "e9" in out and "e7" in out
        assert "e6" not in out

    def test_error_contract_on_missing_file(self, tmp_path, capsys):
        rc = main(["obs", "tail", str(tmp_path / "nope.jsonl")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("spllift: error:")

    @pytest.mark.parametrize("follow", [[], ["--follow"]], ids=["once", "follow"])
    def test_error_contract_on_non_utf8_file(self, tmp_path, capsys, follow):
        path = non_utf8_file(tmp_path)
        rc = main(["obs", "tail", path, *follow])
        assert rc == 2
        assert capsys.readouterr().err == not_utf8_error(path)

    def test_follow_ends_on_an_appended_non_utf8_line(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.cli

        log = tmp_path / "events.jsonl"
        log.write_text('{"ts": 1.0, "event": "job.start"}\n')

        def append(seconds):
            with open(log, "ab") as handle:
                handle.write(b'{"event": "ok"}\n{"event": "\xc3("}\n')

        monkeypatch.setattr(repro.cli.time, "sleep", append)
        rc = main(["obs", "tail", str(log), "--follow"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "job.start" in captured.out and " ok" in captured.out
        offset = len('{"ts": 1.0, "event": "job.start"}\n{"event": "ok"}\n{"event": "')
        assert captured.err == (
            f"spllift: error: cannot read {log}: not UTF-8 text "
            f"(byte 0xc3 at offset {offset})\n"
        )


class TestTraceErrorContract:
    def test_empty_trace_file(self, tmp_path, capsys):
        empty = tmp_path / "trace.json"
        empty.write_text("")
        rc = main(["trace", "summary", str(empty)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("spllift: error:")
        assert len(err.strip().splitlines()) == 1  # no traceback

    def test_truncated_trace_file(self, tmp_path, capsys):
        torn = tmp_path / "trace.json"
        torn.write_text('[\n{"name": "solve", "ph": "B", "ts": 1,')
        rc = main(["trace", "summary", str(torn), "--folded"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("spllift: error:")

    def test_error_contract_on_non_utf8_file(self, tmp_path, capsys):
        path = non_utf8_file(tmp_path)
        assert main(["trace", "summary", path]) == 2
        assert capsys.readouterr().err == not_utf8_error(path)

    @pytest.mark.parametrize("text", ["5", '{"traceEvents": 3}'])
    def test_json_that_holds_no_event_list(self, tmp_path, capsys, text):
        path = tmp_path / "trace.json"
        path.write_text(text)
        assert main(["trace", "summary", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"spllift: error: {path} is not a valid trace file: no event list\n"
        )


class TestBatchObservability:
    def test_progress_line_on_stderr(self, crash_manifest, tmp_path, capsys):
        manifest = tmp_path / "ok.json"
        manifest.write_text(json.dumps({
            "jobs": [
                {"source": FIGURE1_SOURCE, "analysis": "taint",
                 "label": "fig1"},
            ]
        }))
        rc = main(["batch", str(manifest), "--no-store", "--progress"])
        err = capsys.readouterr().err
        assert rc == 0
        assert "batch" in err
        assert "wave" in err
        assert "jobs" in err

    def test_log_records_batch_lifecycle(self, tmp_path, capsys):
        from repro.obs.log import iter_log

        manifest = tmp_path / "ok.json"
        manifest.write_text(json.dumps({
            "jobs": [
                {"source": FIGURE1_SOURCE, "analysis": "taint",
                 "label": "fig1"},
            ]
        }))
        log = tmp_path / "events.jsonl"
        rc = main([
            "batch", str(manifest), "--no-store", "--log", str(log),
        ])
        assert rc == 0
        events = [r["event"] for r in iter_log(log)]
        assert events[0] == "batch.start"
        assert events[-1] == "batch.done"
        assert "job.start" in events
        assert "job.computed" in events
        run_ids = {r.get("run_id") for r in iter_log(log)}
        assert len(run_ids) == 1 and None not in run_ids
