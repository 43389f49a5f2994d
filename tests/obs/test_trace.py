"""Tests for the span tracer and the Chrome trace_event file format."""

import json
import os

import pytest

from repro.obs.trace import (
    Tracer,
    fold_trace,
    read_trace,
    summarize_trace,
    write_trace,
)


class TestTracer:
    def test_span_emits_balanced_monotonic_pair(self):
        tracer = Tracer()
        with tracer.span("outer", detail=7):
            with tracer.span("inner"):
                pass
        names = [(e["name"], e["ph"]) for e in tracer.events()]
        assert names == [
            ("outer", "B"),
            ("inner", "B"),
            ("inner", "E"),
            ("outer", "E"),
        ]
        timestamps = [e["ts"] for e in tracer.events()]
        assert timestamps == sorted(timestamps)
        assert tracer.events()[0]["args"] == {"detail": 7}
        assert all(e["pid"] == os.getpid() for e in tracer.events())

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert [e["ph"] for e in tracer.events()] == ["B", "E"]

    def test_complete_lands_on_requested_tid(self):
        tracer = Tracer()
        tracer.complete("pool/dispatch", 100.0, 250.0, tid=4242, index=1)
        begin, end = tracer.events()
        assert begin["ph"] == "B" and begin["ts"] == 100.0
        assert end["ph"] == "E" and end["ts"] == 250.0
        assert begin["tid"] == end["tid"] == 4242

    def test_drain_clears_absorb_appends(self):
        worker = Tracer()
        with worker.span("work"):
            pass
        shipped = worker.drain()
        assert worker.events() == []
        parent = Tracer()
        parent.absorb(shipped)
        assert [e["name"] for e in parent.events()] == ["work", "work"]

    def test_not_recording_buffers_nothing(self):
        tracer = Tracer(recording=False)
        assert not tracer.enabled
        with tracer.span("ignored", key="value"):
            tracer.complete("ignored", 0.0, 1.0)
        assert tracer.events() == []
        assert tracer.drain() == []
        tracer.absorb([{"name": "x"}])
        assert tracer.events() == []
        # ...while the flight ring saw every event.
        assert [e["kind"] for e in tracer.flight.events()] == [
            "span_begin", "complete", "span_end",
        ]


class TestWriteTrace:
    def test_file_is_json_array_one_event_per_line(self, tmp_path):
        tracer = Tracer()
        with tracer.span("solve"):
            tracer.complete("mark", 0.0, 1.0)
        path = tmp_path / "trace.json"
        count = write_trace(tracer.events(), path)
        assert count == 4  # metadata rows not counted
        text = path.read_text()
        document = json.loads(text)
        assert isinstance(document, list)
        body = [
            line
            for line in text.splitlines()
            if line.strip() not in ("", "[", "]")
        ]
        assert len(body) == len(document)

    def test_sorts_interleaved_worker_events(self, tmp_path):
        events = [
            {"name": "late", "ph": "B", "ts": 200.0, "pid": 1, "tid": 1},
            {"name": "early", "ph": "B", "ts": 100.0, "pid": 2, "tid": 1},
        ]
        path = tmp_path / "trace.json"
        write_trace(events, path)
        loaded = [e for e in read_trace(path) if e["ph"] != "M"]
        assert [e["name"] for e in loaded] == ["early", "late"]

    def test_process_name_metadata_labels_workers(self, tmp_path):
        events = [
            {"name": "a", "ph": "B", "ts": 1.0, "pid": 10, "tid": 1},
            {"name": "b", "ph": "B", "ts": 2.0, "pid": 77, "tid": 1},
        ]
        path = tmp_path / "trace.json"
        write_trace(events, path, run_id="cafe01")
        metadata = [e for e in read_trace(path) if e["ph"] == "M"]
        labels = {e["pid"]: e["args"]["name"] for e in metadata}
        assert labels[10] == "spllift [cafe01]"
        assert labels[77] == "spllift worker 77 [cafe01]"

    def test_read_trace_accepts_object_format_and_jsonl(self, tmp_path):
        event = {"name": "x", "ph": "i", "ts": 1.0, "pid": 1, "tid": 1}
        as_object = tmp_path / "object.json"
        as_object.write_text(json.dumps({"traceEvents": [event]}))
        assert read_trace(as_object) == [event]
        as_jsonl = tmp_path / "events.jsonl"
        as_jsonl.write_text(json.dumps(event) + "\n")
        assert read_trace(as_jsonl) == [event]


class TestSummarizeTrace:
    @staticmethod
    def _span(name, start, end, pid=1, tid=1):
        return [
            {"name": name, "ph": "B", "ts": start, "pid": pid, "tid": tid},
            {"name": name, "ph": "E", "ts": end, "pid": pid, "tid": tid},
        ]

    def test_totals_counts_and_depth(self):
        events = (
            self._span("outer", 0.0, 100.0)[:1]
            + self._span("inner", 10.0, 30.0)
            + self._span("outer", 0.0, 100.0)[1:]
        )
        summary = summarize_trace(events)
        rows = {row["name"]: row for row in summary["rows"]}
        assert rows["outer"]["total_us"] == pytest.approx(100.0)
        assert rows["inner"]["total_us"] == pytest.approx(20.0)
        assert rows["outer"]["depth"] == 0
        assert rows["inner"]["depth"] == 1
        assert summary["wall_us"] == pytest.approx(100.0)
        assert summary["coverage_pct"] == pytest.approx(100.0)

    def test_concurrent_tracks_do_not_double_count_wall(self):
        # Two workers busy over the same 100µs: coverage is 100%, not 200%.
        events = self._span("task", 0.0, 100.0, pid=1) + self._span(
            "task", 0.0, 100.0, pid=2
        )
        summary = summarize_trace(events)
        assert summary["top_level_us"] == pytest.approx(100.0)
        assert summary["coverage_pct"] == pytest.approx(100.0)
        rows = {row["name"]: row for row in summary["rows"]}
        assert rows["task"]["count"] == 2
        assert rows["task"]["total_us"] == pytest.approx(200.0)

    def test_gap_reduces_coverage(self):
        events = self._span("a", 0.0, 25.0) + self._span("b", 75.0, 100.0)
        summary = summarize_trace(events)
        assert summary["coverage_pct"] == pytest.approx(50.0)

    def test_empty_trace(self):
        summary = summarize_trace([])
        assert summary["wall_us"] == 0.0
        assert summary["rows"] == []
        assert summary["coverage_pct"] == 0.0


class TestFoldTrace:
    def _span(self, name, begin, end, pid=1, tid=1):
        return [
            {"name": name, "ph": "B", "ts": begin, "pid": pid, "tid": tid},
            {"name": name, "ph": "E", "ts": end, "pid": pid, "tid": tid},
        ]

    def test_self_time_attribution(self):
        # outer [0, 100] with inner [10, 30]: outer self = 80, inner = 20.
        events = (
            self._span("outer", 0.0, 100.0)[:1]
            + self._span("inner", 10.0, 30.0)
            + self._span("outer", 0.0, 100.0)[1:]
        )
        assert fold_trace(events) == ["outer 80", "outer;inner 20"]

    def test_repeated_stacks_accumulate(self):
        events = (
            self._span("task", 0.0, 10.0) + self._span("task", 20.0, 35.0)
        )
        assert fold_trace(events) == ["task 25"]

    def test_tracks_fold_independently(self):
        events = self._span("task", 0.0, 10.0, pid=1) + self._span(
            "task", 0.0, 10.0, pid=2
        )
        assert fold_trace(events) == ["task 20"]

    def test_frame_sanitization(self):
        events = self._span("bdd apply;hot", 0.0, 5.0)
        assert fold_trace(events) == ["bdd_apply_hot 5"]

    def test_zero_self_time_dropped(self):
        events = (
            self._span("outer", 0.0, 10.0)[:1]
            + self._span("inner", 0.0, 10.0)
            + self._span("outer", 0.0, 10.0)[1:]
        )
        assert fold_trace(events) == ["outer;inner 10"]

    def test_live_tracer_folds(self):
        tracer = Tracer()
        with tracer.span("solve"):
            with tracer.span("phase1"):
                pass
        lines = fold_trace(tracer.events())
        assert any(line.startswith("solve ") for line in lines) or any(
            line.startswith("solve;phase1 ") for line in lines
        )
        for line in lines:
            stack, _, value = line.rpartition(" ")
            assert stack and value.isdigit()

    def test_empty(self):
        assert fold_trace([]) == []
