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
        [],
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
}


class TestSchemaStability:
    def test_schema_version(self):
        assert TRACE_SCHEMA_VERSION == 3

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


RATE = {"time": 1.0, "core": 0, "rate": 2.0, "prev_rate": 1.6}


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(EventSchemaError, match="unknown event kind"):
            validate_event(TraceEvent(0, "nope.never", {}))

    def test_missing_required_field_rejected(self):
        data = {k: v for k, v in RATE.items() if k != "prev_rate"}
        with pytest.raises(EventSchemaError, match="missing required.*prev_rate"):
            validate_event(TraceEvent(0, "sim.rate", data))

    def test_undeclared_field_rejected(self):
        with pytest.raises(EventSchemaError, match="undeclared.*extra"):
            validate_event(TraceEvent(0, "sim.rate", {**RATE, "extra": 1}))

    @pytest.mark.parametrize("kind", ["span.begin", "span.end"])
    def test_retired_kinds_rejected(self, kind):
        with pytest.raises(EventSchemaError, match="unknown event kind"):
            validate_event(TraceEvent(0, kind, {"name": "x"}))

    def test_optional_fields_accepted(self):
        validate_event(TraceEvent(
            0, "lmc.interactive",
            {"cycles": 1.0, "costs": [0.1], "chosen": 0, "delayed": [0],
             "task_id": 7, "task": "q"},
        ))


class TestRecordingTracer:
    def test_seq_is_monotone_and_counts_by_kind(self):
        t = RecordingTracer()
        t.emit("sim.rate", RATE, time=0.0)
        t.emit("sim.rate", {**RATE, "time": 2.0}, time=2.0)
        t.emit("wbg.schedule", {"n_tasks": 1, "n_cores": 1, "kernel": "auto"})
        assert [e.seq for e in t.events] == [0, 1, 2]
        assert [e.seq for e in t] == [0, 1, 2]
        assert len(t) == 3
        assert t.counts == {"sim.rate": 2, "wbg.schedule": 1}
        assert [e.time for e in t.by_kind("sim.rate")] == [0.0, 2.0]

    def test_validates_at_emission(self):
        t = RecordingTracer()
        with pytest.raises(EventSchemaError, match="prev_rate"):
            t.emit("sim.rate", {"time": 0.0, "core": 0, "rate": 2.0})
        with pytest.raises(EventSchemaError, match="unknown event kind"):
            t.emit("span.begin", {"name": "a"})
        assert len(t) == 0 and t.counts == {}


class TestJsonlRoundTrip:
    def test_jsonl_tracer_round_trip(self, tmp_path):
        t = RecordingTracer()
        t.emit("sim.rate", {**RATE, "time": 0.5}, time=0.5)
        t.emit("wbg.schedule", {"n_tasks": 2, "n_cores": 1, "kernel": "vector"})
        path = tmp_path / "trace.jsonl"
        write_trace(path, t.events)
        events = read_trace(path)
        assert [e.kind for e in events] == ["sim.rate", "wbg.schedule"]
        assert events[0].time == 0.5
        assert events[1].time is None
        assert events[0].data["prev_rate"] == 1.6
        assert events[1].data["kernel"] == "vector"

    def test_recording_write_then_read(self, tmp_path):
        t = RecordingTracer()
        t.emit("sim.rate", RATE, time=1.0)
        t.emit("wbg.schedule", {"n_tasks": 2, "n_cores": 1, "kernel": "auto"})
        path = tmp_path / "t.jsonl"
        assert write_trace(path, t.events) == 2
        back = read_trace(path)
        assert back == t.events

    def test_write_trace_counts(self, tmp_path):
        events = [TraceEvent(i, "sim.rate", RATE) for i in range(4)]
        assert write_trace(tmp_path / "t.jsonl", events) == 4

    def test_read_trace_reports_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"seq": 0, "kind": "sim.rate", "data": RATE})
                        + "\nnot json\n")
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_trace(path)

    def test_read_trace_validates(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text(json.dumps(
            {"seq": 0, "kind": "span.begin", "data": {"name": "x"}}) + "\n")
        with pytest.raises(EventSchemaError):
            read_trace(path)
