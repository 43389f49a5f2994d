"""Tests for the flight recorder: ring semantics, spill recovery,
dump extraction, postmortem rendering, and gauge-merge semantics under
the snapshot path."""

import json
import threading
from collections import Counter

import pytest

from repro.analyses import (
    ReachingDefinitionsAnalysis,
    UninitializedVariablesAnalysis,
)
from repro.core import SPLLift
from repro.obs import runtime as obs
from repro.obs.flight import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    load_flight_dump,
    load_spill,
    render_postmortem,
)
from repro.obs.trace import Tracer
from repro.spl.benchmarks import gpl_like
from repro.spl.examples import figure1_with_model


class TestRing:
    def test_ring_is_bounded_but_seq_keeps_counting(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.record("tick", f"event-{index}")
        events = recorder.events()
        assert len(events) == 4
        assert [e["name"] for e in events] == [
            "event-6", "event-7", "event-8", "event-9",
        ]
        assert events[-1]["seq"] == 10  # drops don't reset the sequence

    def test_events_carry_seq_ts_kind_name_and_fields(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record("pulse", "ide/phase1", pops=256)
        (event,) = recorder.events()
        assert event["kind"] == "pulse"
        assert event["name"] == "ide/phase1"
        assert event["pops"] == 256
        assert event["seq"] == 1
        assert event["ts"] > 0

    def test_span_stack_tracks_innermost(self):
        recorder = FlightRecorder(capacity=8)
        recorder.span_begin("outer")
        recorder.span_begin("inner")
        assert recorder.current_span() == "inner"
        assert [s["name"] for s in recorder.open_spans()] == ["outer", "inner"]
        recorder.span_end("inner")
        assert recorder.current_span() == "outer"
        recorder.span_end("outer")
        assert recorder.current_span() is None
        assert recorder.open_spans() == []

    def test_note_counters_accumulates_ints_only(self):
        recorder = FlightRecorder(capacity=8)
        recorder.note_counters("ide", {"jumps": 3, "order": "rpo", "flag": True})
        recorder.note_counters("ide", {"jumps": 4})
        dump = recorder.dump("test")
        assert dump["counters"] == {"ide.jumps": 7}

    def test_dump_shape(self):
        recorder = FlightRecorder(capacity=8)
        recorder.note_job({"label": "fig1", "analysis": "taint"})
        recorder.span_begin("pool/task")
        dump = recorder.dump("unit test", run_id="run-1")
        assert dump["schema"] == FLIGHT_SCHEMA
        assert dump["reason"] == "unit test"
        assert dump["run_id"] == "run-1"
        assert dump["capacity"] == 8
        assert dump["job"]["label"] == "fig1"
        assert [s["name"] for s in dump["open_spans"]] == ["pool/task"]
        assert dump["events"][0]["kind"] == "job"
        # The dump is a snapshot: mutating the recorder afterwards must
        # not reach into it.
        recorder.record("tick", "later")
        assert all(e["name"] != "later" for e in dump["events"])


class TestSpill:
    def test_round_trip(self, tmp_path):
        spill = tmp_path / "flight-123.jsonl"
        recorder = FlightRecorder(capacity=8, spill_path=str(spill))
        recorder.note_job({"label": "fig1", "analysis": "uninit"})
        recorder.span_begin("service/job")
        recorder.note_counters("ide", {"jumps": 5})
        # SIGKILL: no close, no dump — only the spill survives.
        dump = load_spill(str(spill), reason="worker crashed")
        assert dump["schema"] == FLIGHT_SCHEMA
        assert dump["reason"] == "worker crashed"
        assert dump["job"]["label"] == "fig1"
        assert [s["name"] for s in dump["open_spans"]] == ["service/job"]
        assert dump["counters"] == {"ide.jumps": 5}
        recorder.close_spill()

    def test_closed_span_not_reported_open(self, tmp_path):
        spill = tmp_path / "flight-1.jsonl"
        recorder = FlightRecorder(capacity=8, spill_path=str(spill))
        recorder.span_begin("pool/task")
        recorder.span_begin("service/job")
        recorder.span_end("service/job")
        dump = load_spill(str(spill), reason="x")
        assert [s["name"] for s in dump["open_spans"]] == ["pool/task"]
        recorder.close_spill()

    def test_torn_last_line_is_tolerated(self, tmp_path):
        spill = tmp_path / "flight-2.jsonl"
        recorder = FlightRecorder(capacity=8, spill_path=str(spill))
        recorder.record("tick", "one")
        recorder.record("tick", "two")
        recorder.close_spill()
        with open(spill, "a") as handle:
            handle.write('{"seq": 99, "kind": "tick", "na')  # torn mid-write
        dump = load_spill(str(spill), reason="x")
        assert [e["name"] for e in dump["events"]] == ["one", "two"]

    def test_missing_or_empty_spill_is_none(self, tmp_path):
        assert load_spill(str(tmp_path / "nope.jsonl"), reason="x") is None
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert load_spill(str(empty), reason="x") is None

    def test_ring_bound_reapplied_on_load(self, tmp_path):
        spill = tmp_path / "flight-3.jsonl"
        recorder = FlightRecorder(capacity=4, spill_path=str(spill))
        for index in range(10):
            recorder.record("tick", f"event-{index}")
        recorder.close_spill()
        dump = load_spill(str(spill), reason="x")
        assert len(dump["events"]) == 4
        assert dump["events"][-1]["name"] == "event-9"
        assert dump["recorded"] >= 10


class TestFlightTracer:
    """The tracer's flight side: every span, instant and complete span
    reaches the ring, whether or not a trace file is being recorded."""

    def test_default_tracer_is_not_recording(self):
        tracer = obs.tracer()
        assert not tracer.enabled  # guarded sites stay off
        assert tracer.flight is obs.flight()  # the one ring it feeds

    def test_spans_feed_the_ring(self):
        recorder = FlightRecorder(capacity=8)
        tracer = Tracer(recorder, recording=False)
        with tracer.span("solve", subject="fig1"):
            assert recorder.current_span() == "solve"
        kinds = [(e["kind"], e["name"]) for e in recorder.events()]
        assert kinds == [("span_begin", "solve"), ("span_end", "solve")]
        assert recorder.events()[0]["subject"] == "fig1"
        assert tracer.events() == []

    def test_complete_spans_feed_the_ring(self):
        recorder = FlightRecorder(capacity=8)
        tracer = Tracer(recorder, recording=False)
        tracer.complete("work", 0, 500, n=2)
        (event,) = recorder.events()
        assert event["kind"] == "complete"
        assert event["duration_us"] == 500.0
        assert tracer.events() == []

    def test_real_tracer_feeds_the_ring_too(self):
        recorder = FlightRecorder(capacity=8)
        tracer = Tracer(flight=recorder)
        with tracer.span("solve"):
            pass
        assert [e["kind"] for e in recorder.events()] == [
            "span_begin", "span_end",
        ]

    def test_toggling_tracing_keeps_one_ring(self):
        ring = obs.flight()
        obs.log_event("before.toggles")
        obs.enable_tracing()
        obs.disable_tracing()
        tracer = obs.enable_tracing()
        assert obs.flight() is ring and tracer.flight is ring
        with tracer.span("after.toggles"):
            pass
        names = [e["name"] for e in ring.events()]
        assert names == ["before.toggles", "after.toggles", "after.toggles"]
        # The buffer holds only what was recorded since tracing resumed.
        assert [e["name"] for e in tracer.events()] == ["after.toggles"] * 2
        obs.disable_tracing()


class TestRingBudget:
    """The always-on ring stays cheap because a lifted solve records
    once per phase and once per 256 worklist pops — never once per
    propagation.  This pins that budget deterministically, where a
    timing gate could not resolve it."""

    @pytest.mark.parametrize(
        "build, analysis",
        [
            (figure1_with_model, UninitializedVariablesAnalysis),
            (gpl_like, ReachingDefinitionsAnalysis),
        ],
        ids=["figure1-uninit", "gpl-like-rd"],
    )
    def test_lifted_solve_records_phases_and_pulses_only(
        self, build, analysis
    ):
        product_line = build()
        SPLLift(
            analysis(product_line.icfg),
            feature_model=product_line.feature_model,
        ).solve()
        events = obs.flight().events()
        assert events[0]["seq"] == 1  # nothing fell off the ring
        pulses = [e["pops"] for e in events if e["kind"] == "pulse"]
        phases = Counter(e["kind"] for e in events if e["kind"] != "pulse")
        # spllift/solve, ide/solve, phase I, phase II values/i/ii.
        assert phases == {"span_begin": 6, "span_end": 6, "counters": 1}
        assert pulses == [256 * k for k in range(1, len(pulses) + 1)]
        if build is gpl_like:
            assert pulses  # the solve is long enough to pulse


class TestLoadFlightDump:
    def test_raw_dump_file(self, tmp_path):
        recorder = FlightRecorder(capacity=8)
        recorder.note_job({"label": "fig1"})
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(recorder.dump("crash")))
        document = load_flight_dump(str(path))
        assert len(document["dumps"]) == 1
        assert document["dumps"][0]["reason"] == "crash"

    def test_batch_report_extracts_and_backfills_job(self, tmp_path):
        recorder = FlightRecorder(capacity=8)
        flight = recorder.dump("worker crashed (exit code -9, attempt 1)")
        report = {
            "schema": "spllift-batch-report/v1",
            "jobs": [
                {"label": "fig1", "analysis": "taint", "status": "computed"},
                {
                    "label": "fig1",
                    "analysis": "uninit",
                    "digest": "abc123",
                    "status": "failed",
                    "flight": flight,
                },
            ],
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        document = load_flight_dump(str(path))
        (dump,) = document["dumps"]
        assert dump["job"]["label"] == "fig1"
        assert dump["job"]["analysis"] == "uninit"
        assert dump["outcome"] == "failed"

    def test_report_without_flights_raises(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({
            "schema": "spllift-batch-report/v1",
            "jobs": [{"label": "fig1", "status": "computed"}],
        }))
        with pytest.raises(ValueError, match="no flight dumps"):
            load_flight_dump(str(path))

    def test_unknown_schema_and_bad_json_raise(self, tmp_path):
        bad_schema = tmp_path / "x.json"
        bad_schema.write_text('{"schema": "nope"}')
        with pytest.raises(ValueError, match="expected schema"):
            load_flight_dump(str(bad_schema))
        bad_json = tmp_path / "y.json"
        bad_json.write_text("{")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_flight_dump(str(bad_json))


class TestRenderPostmortem:
    def test_names_job_spans_and_events(self):
        recorder = FlightRecorder(capacity=8)
        recorder.note_job({"label": "fig1", "analysis": "taint"})
        recorder.span_begin("pool/task")
        recorder.record("pulse", "ide/phase1", pops=512)
        text = "\n".join(
            render_postmortem(recorder.dump("timeout after 5s", run_id="r-1"))
        )
        assert "reason: timeout after 5s" in text
        assert "in-flight job: fig1" in text
        assert "pool/task" in text
        assert "ide/phase1" in text

    def test_last_limits_events_shown(self):
        recorder = FlightRecorder(capacity=64)
        for index in range(30):
            recorder.record("tick", f"event-{index}")
        lines = render_postmortem(recorder.dump("x"), last=5)
        assert any("last 5 of 30 event(s)" in line for line in lines)
        assert not any("event-24" in line for line in lines)
        assert any("event-29" in line for line in lines)


class TestGaugeMergeUnderSnapshot:
    """Gauge merge semantics when the flight ring observes the same
    ``publish_stats`` traffic that feeds the registry: the ring is a
    read-only mirror, so it must leave merge results untouched."""

    def test_publish_stats_feeds_ring_without_touching_gauges(self):
        obs.publish_stats("ide", {"jumps": 3, "worklist_order": "rpo"})
        assert obs.metrics().counter_value("ide.jumps") == 3
        assert obs.metrics().gauges == {}  # stats never become gauges
        counter_events = [
            e for e in obs.flight().events() if e["kind"] == "counters"
        ]
        assert counter_events[-1]["counters"] == {"ide.jumps": 3}

    def test_worker_gauges_merge_via_max_with_flight_on(self):
        assert obs.tracer().flight is obs.flight()  # the ring observes
        obs.metrics().gauge("pool.peak_rss", 100.0)
        for peak in (300.0, 200.0):  # arrival order must not matter
            obs.absorb_payload({
                "metrics": {
                    "counters": {"ide.jumps": 1},
                    "gauges": {"pool.peak_rss": peak},
                    "histograms": {},
                },
                "events": [],
            })
        assert obs.metrics().gauge_value("pool.peak_rss") == 300.0
        assert obs.metrics().counter_value("ide.jumps") == 2

    def test_flight_snapshot_of_merged_registry_is_consistent(self):
        obs.metrics().gauge_max("pool.peak_rss", 50.0)
        obs.absorb_payload({
            "metrics": {
                "counters": {},
                "gauges": {"pool.peak_rss": 80.0},
                "histograms": {},
            },
            "events": [],
        })
        obs.publish_stats("pool", {"tasks": 4})
        dump = obs.flight_dump("snapshot test")
        # The ring's counter view saw only the published deltas; the
        # merged gauge lives in the registry alone.
        assert dump["counters"] == {"pool.tasks": 4}
        assert obs.metrics().gauge_value("pool.peak_rss") == 80.0
