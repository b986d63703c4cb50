"""Tests for the Gantt renderer and bootstrap stats."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.gantt import render_plan_gantt, render_run_gantt
from repro.analysis.stats import Summary, bootstrap_ci
from repro.models.rates import TABLE_II
from repro.models.task import Task
from repro.schedulers import wbg_plan
from repro.simulator import run_batch


class TestGantt:
    @pytest.fixture
    def plan(self):
        tasks = [Task(cycles=c, name=f"t{i}") for i, c in enumerate((40.0, 10.0, 90.0, 25.0))]
        return wbg_plan(tasks, TABLE_II, 2, 0.1, 0.4)

    def test_plan_gantt_structure(self, plan):
        out = render_plan_gantt(plan, TABLE_II, width=40)
        lines = out.splitlines()
        assert lines[0].startswith("core 0 |")
        assert lines[1].startswith("core 1 |")
        assert "0s" in lines[2]
        assert "tasks:" in out
        # bars are exactly the requested width
        assert len(lines[0].split("|")[1]) == 40

    def test_run_gantt_matches_execution(self, plan):
        result = run_batch(plan, TABLE_II)
        out = render_run_gantt(result, TABLE_II, width=50)
        assert f"{result.makespan:.0f}s" in out
        assert "core 0" in out

    def test_all_tasks_appear(self, plan):
        out = render_plan_gantt(plan, TABLE_II, width=60)
        body = "".join(line.split("|")[1] for line in out.splitlines() if "|" in line)
        distinct = {c for c in body.lower() if c.isalnum()}
        assert len(distinct) == 4  # one letter per task

    def test_width_validation(self, plan):
        with pytest.raises(ValueError):
            render_plan_gantt(plan, TABLE_II, width=3)

    def test_empty_plan(self):
        from repro.models.cost import CoreSchedule

        out = render_plan_gantt([CoreSchedule([], core_index=0)], TABLE_II)
        assert "empty" in out


class TestBootstrap:
    def test_single_sample_degenerate(self):
        s = bootstrap_ci([5.0])
        assert s.mean == s.lo == s.hi == 5.0
        assert s.n == 1

    def test_interval_contains_mean_of_tight_data(self):
        s = bootstrap_ci([10.0, 10.1, 9.9, 10.05, 9.95], seed=1)
        assert s.lo <= s.mean <= s.hi
        assert s.contains(10.0)
        assert s.hi - s.lo < 0.5

    def test_wider_spread_wider_interval(self):
        tight = bootstrap_ci([10.0, 10.1, 9.9, 10.0], seed=1)
        wide = bootstrap_ci([5.0, 15.0, 2.0, 18.0], seed=1)
        assert (wide.hi - wide.lo) > (tight.hi - tight.lo)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], resamples=10)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=30))
    def test_interval_brackets_sample_mean(self, samples):
        s = bootstrap_ci(samples, seed=2)
        assert s.lo - 1e-9 <= s.mean <= s.hi + 1e-9

