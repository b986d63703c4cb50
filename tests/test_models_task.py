"""Tests for the task model (Section II-A)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.models.task import Task, TaskKind, TaskSet


class TestTask:
    def test_defaults_are_batch_mode(self):
        t = Task(cycles=10.0)
        assert t.arrival == 0.0
        assert math.isinf(t.deadline)
        assert t.kind is TaskKind.BATCH
        assert not t.has_deadline

    def test_finite_deadline_flag(self):
        t = Task(cycles=1.0, arrival=2.0, deadline=5.0)
        assert t.has_deadline
        assert t.deadline == 5.0

    def test_rejects_nonpositive_cycles(self):
        with pytest.raises(ValueError):
            Task(cycles=0.0)
        with pytest.raises(ValueError):
            Task(cycles=-3.0)

    @pytest.mark.parametrize("cycles", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_cycles(self, cycles):
        with pytest.raises(ValueError, match="cycles"):
            Task(cycles=cycles)

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError):
            Task(cycles=1.0, arrival=-1.0)

    @pytest.mark.parametrize("arrival", [math.nan, math.inf])
    def test_rejects_nonfinite_arrival(self, arrival):
        with pytest.raises(ValueError, match="arrival"):
            Task(cycles=1.0, arrival=arrival)

    def test_rejects_nan_deadline(self):
        with pytest.raises(ValueError, match="deadline"):
            Task(cycles=1.0, deadline=math.nan)

    def test_rejects_negative_infinite_deadline(self):
        with pytest.raises(ValueError):
            Task(cycles=1.0, deadline=-math.inf)

    def test_infinite_deadline_stays_legal(self):
        assert not Task(cycles=1.0, arrival=3.0, deadline=math.inf).has_deadline

    def test_rejects_deadline_before_arrival(self):
        with pytest.raises(ValueError):
            Task(cycles=1.0, arrival=5.0, deadline=5.0)
        with pytest.raises(ValueError):
            Task(cycles=1.0, arrival=5.0, deadline=4.0)

    def test_unique_auto_ids(self):
        ids = {Task(cycles=1.0).task_id for _ in range(100)}
        assert len(ids) == 100

    def test_interactive_flag_and_priority(self):
        i = Task(cycles=1.0, kind=TaskKind.INTERACTIVE)
        n = Task(cycles=1.0, kind=TaskKind.NONINTERACTIVE)
        assert i.kind.priority > n.kind.priority
        assert TaskKind.BATCH.priority == TaskKind.NONINTERACTIVE.priority


class TestTaskSet:
    def test_iteration_preserves_order(self):
        tasks = [Task(cycles=c) for c in (3.0, 1.0, 2.0)]
        ts = TaskSet(tasks)
        assert [t.cycles for t in ts] == [3.0, 1.0, 2.0]
        assert len(ts) == 3
        assert ts[1].cycles == 1.0

    def test_rejects_duplicate_ids(self):
        t = Task(cycles=1.0)
        with pytest.raises(ValueError):
            TaskSet([t, t])
        ts = TaskSet([t])
        with pytest.raises(ValueError):
            ts.add(t)

    def test_total_cycles(self):
        ts = TaskSet(Task(cycles=c) for c in (1.0, 2.0, 3.5))
        assert ts.total_cycles() == pytest.approx(6.5)

    def test_validate_batch_accepts_zero_arrivals(self):
        TaskSet([Task(cycles=1.0), Task(cycles=2.0)]).validate_batch()

    def test_validate_batch_rejects_late_arrivals(self):
        ts = TaskSet([Task(cycles=1.0, arrival=3.0)])
        with pytest.raises(ValueError, match="arrival time 0"):
            ts.validate_batch()

    @given(st.lists(st.floats(0.001, 1e6), min_size=1, max_size=50))
    def test_total_cycles_matches_sum(self, cycles):
        ts = TaskSet(Task(cycles=c) for c in cycles)
        assert ts.total_cycles() == pytest.approx(sum(cycles))
