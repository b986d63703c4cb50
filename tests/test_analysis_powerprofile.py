"""Tests for the power-profile renderer over the derived power trace."""

import pytest

from repro.analysis.powerprofile import (
    PowerSegment,
    batch_power_profile,
    power_at,
    power_trace,
    render_power_profile,
)
from repro.models.rates import TABLE_II
from repro.models.task import Task
from repro.schedulers import olb_plan, wbg_plan
from repro.simulator import run_batch

#: 40 W for five seconds, then 10 W for five
STEP_DOWN = [PowerSegment(0.0, 5.0, 40.0, idle=False), PowerSegment(5.0, 10.0, 10.0, idle=False)]


class TestRenderPowerProfile:
    def test_shape_and_annotations(self):
        out = render_power_profile(STEP_DOWN, 10.0, width=20, height=4)
        lines = out.splitlines()
        assert len(lines) == 4 + 3  # height rows + axis + timeline + summary
        assert "0s" in lines[-2] and "10s" in lines[-2]
        assert "peak 40.0 W" in lines[-1]

    def test_step_down_visible(self):
        out = render_power_profile(STEP_DOWN, 10.0, width=20, height=4)
        top_row = out.splitlines()[0]
        bar = top_row.split("|")[1]
        # the top band is filled only in the first (high-power) half
        first, second = bar[:10], bar[10:]
        assert "█" in first
        assert "█" not in second

    def test_empty_meter(self):
        out = render_power_profile([], 10.0, width=12, height=3)
        assert "peak" in out  # renders without dividing by zero

    def test_validation(self):
        with pytest.raises(ValueError):
            render_power_profile([], 0.0)
        with pytest.raises(ValueError):
            render_power_profile([], 5.0, width=2)


class TestBatchIntegration:
    def test_profile_from_traced_run(self):
        tasks = [Task(cycles=float(c)) for c in (40, 15, 60, 25)]
        plan = wbg_plan(tasks, TABLE_II, 2, 0.1, 0.4)
        result = run_batch(plan, TABLE_II)
        assert result.cores == (0, 1)
        out = batch_power_profile(result, TABLE_II, width=30, height=4)
        assert "peak" in out

    def test_wbg_peak_power_below_olb(self):
        """WBG's mixed frequencies draw less peak power than all-max OLB."""
        tasks = [Task(cycles=float(10 + 7 * i)) for i in range(8)]
        wbg_res = run_batch(wbg_plan(tasks, TABLE_II, 2, 0.1, 0.4), TABLE_II)
        olb_res = run_batch(olb_plan(tasks, TABLE_II, 2), TABLE_II)

        def peak(result):
            platform = [s for core in power_trace(result, TABLE_II) for s in core]
            return max(
                power_at(platform, t * result.makespan / 200.0) for t in range(200)
            )

        assert peak(wbg_res) <= peak(olb_res) + 1e-9

    def test_core_with_empty_plan_idles_over_the_makespan(self):
        plan = wbg_plan([Task(cycles=5.0)], TABLE_II, 2, 0.1, 0.4)
        result = run_batch(plan, TABLE_II)
        assert result.cores == (0, 1)
        busy, idle = power_trace(result, TABLE_II, idle_power=2.0)
        assert [s.idle for s in busy] == [False]
        assert idle == [PowerSegment(0.0, result.makespan, 2.0, idle=True)]
