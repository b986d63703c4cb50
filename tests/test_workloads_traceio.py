"""Tests for trace persistence (CSV / JSON Lines round-trips)."""

import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.models.task import Task, TaskKind
from repro.workloads import (
    JudgeTraceConfig,
    generate_judge_trace,
    load_trace_csv,
    load_trace_jsonl,
    save_trace_csv,
    save_trace_jsonl,
)
from repro.workloads.traceio import roundtrip_equal


@pytest.fixture
def trace():
    cfg = JudgeTraceConfig(n_interactive=40, n_noninteractive=15,
                           duration_s=60.0, seed=33)
    return generate_judge_trace(cfg)


class TestCSV:
    def test_roundtrip(self, trace, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        loaded = load_trace_csv(path)
        assert roundtrip_equal(trace, loaded)

    def test_infinite_deadline_survives(self, tmp_path):
        t = Task(cycles=5.0, kind=TaskKind.NONINTERACTIVE, name="x")
        path = tmp_path / "t.csv"
        save_trace_csv([t], path)
        loaded = load_trace_csv(path)
        assert math.isinf(loaded[0].deadline)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("task_id,cycles\n1,5.0\n")
        with pytest.raises(ValueError, match="missing columns"):
            load_trace_csv(path)

    def test_loaded_sorted_by_arrival(self, tmp_path):
        tasks = [
            Task(cycles=1.0, arrival=9.0, name="late"),
            Task(cycles=1.0, arrival=1.0, name="early"),
        ]
        path = tmp_path / "t.csv"
        save_trace_csv(tasks, path)
        loaded = load_trace_csv(path)
        assert [t.name for t in loaded] == ["early", "late"]


class TestJSONL:
    def test_roundtrip(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace_jsonl(trace, path)
        loaded = load_trace_jsonl(path)
        assert roundtrip_equal(trace, loaded)

    def test_blank_lines_skipped(self, tmp_path):
        t = Task(cycles=2.0, name="a")
        path = tmp_path / "t.jsonl"
        save_trace_jsonl([t], path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_trace_jsonl(path)) == 1

    def test_invalid_json_line_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_trace_jsonl(path)

    def test_missing_fields_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"task_id": 1, "cycles": 5.0}\n')
        with pytest.raises(ValueError, match="missing fields"):
            load_trace_jsonl(path)

    def test_formats_agree(self, trace, tmp_path):
        save_trace_csv(trace, tmp_path / "a.csv")
        save_trace_jsonl(trace, tmp_path / "a.jsonl")
        assert roundtrip_equal(
            load_trace_csv(tmp_path / "a.csv"),
            load_trace_jsonl(tmp_path / "a.jsonl"),
        )


_HEADER = ",".join(("task_id", "name", "cycles", "arrival", "deadline", "kind"))


class TestBadRows:
    """A bad row is a ValueError that starts with ``path:line``."""

    def test_csv_nan_cycles(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"{_HEADER}\n1,ok,5.0,0.0,inf,noninteractive\n"
                        "2,bad,nan,1.0,inf,noninteractive\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: .*cycles"):
            load_trace_csv(path)

    @pytest.mark.parametrize("row, reason", [
        ("1,x,5.0,inf,inf,interactive", "arrival"),
        ("1,x,five,0.0,inf,interactive", "five"),
        ("1,x,5.0,0.0,inf,urgent", "urgent"),
        ("1,x,5.0", "bad trace row"),
    ])
    def test_csv_bad_fields(self, tmp_path, row, reason):
        path = tmp_path / "bad.csv"
        path.write_text(f"{_HEADER}\n{row}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: .*{reason}"):
            load_trace_csv(path)

    def test_jsonl_nan_cycles(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = Task(cycles=2.0, name="ok", kind=TaskKind.INTERACTIVE)
        save_trace_jsonl([good], path)
        path.write_text(path.read_text() + "\n" + json.dumps(
            {"task_id": 7, "name": "bad", "cycles": math.nan, "arrival": 1.0,
             "deadline": "inf", "kind": "interactive"}) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: .*cycles"):
            load_trace_jsonl(path)

    @pytest.mark.parametrize("row, reason", [
        ('{"task_id": 1, "name": "", "cycles": 1.0, "arrival": Infinity, '
         '"deadline": "inf", "kind": "interactive"}', "arrival"),
        ('{"task_id": 1, "name": "", "cycles": null, "arrival": 0.0, '
         '"deadline": "inf", "kind": "interactive"}', "bad trace row"),
        ('{"task_id": 1, "name": "", "cycles": 1.0, "arrival": 0.0, '
         '"deadline": "inf", "kind": "urgent"}', "urgent"),
        ('[1, 2, 3]', "JSON object"),
    ])
    def test_jsonl_bad_fields(self, tmp_path, row, reason):
        path = tmp_path / "bad.jsonl"
        path.write_text(row + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:1: .*{reason}"):
            load_trace_jsonl(path)


class TestRoundtripEqual:
    def test_detects_differences(self):
        a = [Task(cycles=1.0, name="x", task_id=900001)]
        b = [Task(cycles=2.0, name="x", task_id=900001)]
        assert not roundtrip_equal(a, b)
        assert not roundtrip_equal(a, [])
        assert roundtrip_equal(a, a)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(0.1, 100.0), min_size=0, max_size=10))
    def test_property_roundtrip(self, tmp_path_factory, cycles):
        tasks = [
            Task(cycles=c, arrival=float(i), kind=TaskKind.NONINTERACTIVE,
                 name=f"t{i}")
            for i, c in enumerate(cycles)
        ]
        d = tmp_path_factory.mktemp("rt")
        save_trace_jsonl(tasks, d / "x.jsonl")
        assert roundtrip_equal(tasks, load_trace_jsonl(d / "x.jsonl"))
