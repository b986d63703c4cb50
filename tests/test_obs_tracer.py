"""Trace-event schema stability and tracer behaviour.

The ``PINNED_SPECS`` table below is the schema contract: widening a
spec (new optional field, new kind) means updating the pin alongside a
``TRACE_SCHEMA_VERSION`` review; silently narrowing or renaming fields
fails here before it breaks ``repro explain`` or downstream parsers.
"""

import json

import pytest

from repro.obs import (
    EVENT_SPECS,
    TRACE_SCHEMA_VERSION,
    EventSchemaError,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    TraceEvent,
    read_trace,
    validate_event,
    write_trace,
)

# kind -> (sorted required fields, sorted optional fields)
PINNED_SPECS = {
    "ranges.build": (["ranges", "rates", "re", "rt"], ["core"]),
    "wbg.schedule": (["kernel", "n_cores", "n_tasks"], []),
    "wbg.slot_pick": (
        ["candidates", "core", "cycles", "positional_cost", "rate", "slot",
         "task", "task_id"],
        ["heap_digest"],
    ),
    "lmc.interactive": (["chosen", "costs", "cycles", "delayed"], ["task", "task_id"]),
    "lmc.noninteractive": (["chosen", "costs", "cycles"],
                           ["head_delays", "task", "task_id"]),
    "dynamic.insert": (["cycles", "position", "rate", "total_cost"],
                       ["queue", "task", "task_id"]),
    "dynamic.delete": (["cycles", "position", "total_cost"],
                       ["queue", "task", "task_id"]),
    "dynamic.probe": (["cycles", "marginal"], ["queue"]),
    "sim.dispatch": (["core", "rate", "task", "task_id", "task_kind", "time"], []),
    "sim.complete": (["core", "energy_joules", "task", "task_id", "time",
                      "turnaround"], []),
    "sim.preempt": (["core", "task", "task_id", "time"], []),
    "sim.rate": (["core", "prev_rate", "rate", "time"], []),
    "span.begin": (["name"], ["kernel", "n_cores", "n_events", "n_tasks", "scenario"]),
    "span.end": (["name"], ["kernel", "n_cores", "n_events", "n_tasks", "scenario"]),
}


class TestSchemaStability:
    def test_schema_version(self):
        assert TRACE_SCHEMA_VERSION == 2

    def test_kind_registry_is_pinned(self):
        assert sorted(EVENT_SPECS) == sorted(PINNED_SPECS)

    @pytest.mark.parametrize("kind", sorted(PINNED_SPECS))
    def test_spec_fields_are_pinned(self, kind):
        required, optional = PINNED_SPECS[kind]
        spec = EVENT_SPECS[kind]
        assert sorted(spec.required) == required
        assert sorted(spec.optional) == optional
        assert spec.allowed == spec.required | spec.optional

    def test_every_spec_has_summary(self):
        for spec in EVENT_SPECS.values():
            assert spec.summary


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(EventSchemaError, match="unknown event kind"):
            validate_event(TraceEvent(0, "nope.never", {}))

    def test_missing_required_field_rejected(self):
        with pytest.raises(EventSchemaError, match="missing required"):
            validate_event(TraceEvent(0, "span.begin", {"n_tasks": 1}))

    def test_undeclared_field_rejected(self):
        with pytest.raises(EventSchemaError, match="undeclared"):
            validate_event(TraceEvent(0, "span.begin",
                                      {"name": "x", "extra": 1}))

    def test_optional_fields_accepted(self):
        validate_event(TraceEvent(
            0, "lmc.interactive",
            {"cycles": 1.0, "costs": [0.1], "chosen": 0, "delayed": [0],
             "task_id": 7, "task": "q"},
        ))


class TestNullTracer:
    def test_is_disabled_and_silent(self):
        t = NullTracer()
        assert t.enabled is False
        t.emit("not-even-a-kind", {"whatever": 1})  # discarded, never validated
        with t.span("phase", n_tasks=3):
            pass


class TestRecordingTracer:
    def test_seq_is_monotone_and_counts_by_kind(self):
        t = RecordingTracer()
        t.emit("span.begin", {"name": "a"}, time=0.0)
        t.emit("span.begin", {"name": "b"}, time=1.0)
        t.emit("wbg.schedule", {"n_tasks": 1, "n_cores": 1, "kernel": "scalar"})
        assert [e.seq for e in t.events] == [0, 1, 2]
        assert t.counts == {"span.begin": 2, "wbg.schedule": 1}
        assert len(t.by_kind("span.begin")) == 2

    def test_validates_at_emission(self):
        t = RecordingTracer()
        with pytest.raises(EventSchemaError):
            t.emit("span.begin", {"n_tasks": 0})  # missing name
        t_lax = RecordingTracer(validate=False)
        t_lax.emit("span.begin", {"n_tasks": 0})  # tolerated when asked

    def test_ring_buffer_counts_drops(self):
        t = RecordingTracer(capacity=3)
        for i in range(5):
            t.emit("span.begin", {"name": f"e{i}"})
        assert len(t) == 3
        assert t.dropped == 2
        assert [e.data["name"] for e in t.events] == ["e2", "e3", "e4"]
        assert t.counts["span.begin"] == 5  # counts survive eviction

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            RecordingTracer(capacity=0)

    def test_clear_keeps_seq_rising(self):
        t = RecordingTracer()
        t.emit("span.begin", {"name": "a"})
        t.clear()
        assert len(t) == 0 and t.counts == {}
        t.emit("span.begin", {"name": "b"})
        assert t.events[0].seq == 1

    def test_span_brackets(self):
        t = RecordingTracer()
        with t.span("schedule", n_tasks=4):
            t.emit("wbg.schedule", {"n_tasks": 4, "n_cores": 2, "kernel": "scalar"})
        kinds = [e.kind for e in t.events]
        assert kinds == ["span.begin", "wbg.schedule", "span.end"]
        assert t.events[0].data == {"name": "schedule", "n_tasks": 4}
        assert t.events[-1].data == {"name": "schedule", "n_tasks": 4}


class TestJsonlRoundTrip:
    def test_jsonl_tracer_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(path) as t:
            t.emit("span.begin", {"name": "go"}, time=0.5)
            t.emit("wbg.schedule", {"n_tasks": 2, "n_cores": 1, "kernel": "vector"})
        events = read_trace(path)
        assert [e.kind for e in events] == ["span.begin", "wbg.schedule"]
        assert events[0].time == 0.5
        assert events[1].time is None
        assert events[0].data["name"] == "go"

    def test_recording_write_then_read(self, tmp_path):
        t = RecordingTracer()
        t.emit("sim.rate", {"time": 1.0, "core": 0, "rate": 2.0, "prev_rate": 1.6},
               time=1.0)
        path = tmp_path / "t.jsonl"
        assert t.write_jsonl(path) == 1
        back = read_trace(path)
        assert back == t.events

    def test_write_trace_counts(self, tmp_path):
        events = [TraceEvent(i, "span.begin", {"name": ""})
                  for i in range(4)]
        assert write_trace(tmp_path / "t.jsonl", events) == 4

    def test_read_trace_reports_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0, "kind": "span.begin", "data": {"name": ""}}\n'
                        "not json\n")
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_trace(path)

    def test_read_trace_validates_unless_told_not_to(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text(json.dumps(
            {"seq": 0, "kind": "span.begin", "data": {"n_tasks": 0}}) + "\n")
        with pytest.raises(EventSchemaError):
            read_trace(path)
        assert len(read_trace(path, validate=False)) == 1
