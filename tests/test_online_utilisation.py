"""Tests for per-core utilisation accounting in the online runner."""

import pytest

from repro.governors import OnDemandGovernor
from repro.models.rates import TABLE_II
from repro.models.task import Task, TaskKind
from repro.schedulers import LMCOnlineScheduler, OnDemandRoundRobinScheduler
from repro.simulator import run_online


def ni(cycles, arrival):
    return Task(cycles=cycles, arrival=arrival, kind=TaskKind.NONINTERACTIVE)


class TestUtilisation:
    def test_single_task_single_core(self):
        res = run_online([ni(10.0, 0.0)], LMCOnlineScheduler(TABLE_II, 1, 0.4, 0.1),
                         TABLE_II)
        # busy the whole horizon (starts at 0, horizon = its finish)
        assert res.core_busy_seconds[0] == pytest.approx(res.horizon)
        assert res.utilisation(0) == pytest.approx(1.0)

    def test_late_arrival_leaves_idle_gap(self):
        res = run_online([ni(10.0, 5.0)], LMCOnlineScheduler(TABLE_II, 1, 0.4, 0.1),
                         TABLE_II)
        busy = 10.0 * 0.625
        assert res.core_busy_seconds[0] == pytest.approx(busy)
        assert res.utilisation(0) == pytest.approx(busy / (5.0 + busy))

    def test_idle_core_reports_zero(self):
        res = run_online([ni(5.0, 0.0)], LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1),
                         TABLE_II)
        assert res.core_busy_seconds[1] == 0.0
        assert res.utilisation(1) == 0.0

    def test_busy_seconds_match_execution_spans_without_preemption(self):
        trace = [ni(10.0, 0.0), ni(4.0, 0.0), ni(6.0, 1.0)]
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1), TABLE_II)
        total_span = sum(r.finish - r.first_start for r in res.records)
        assert sum(res.core_busy_seconds) == pytest.approx(total_span, rel=1e-9)

    def test_preempted_task_busy_excludes_suspension(self):
        trace = [
            ni(100.0, 0.0),
            Task(cycles=3.0, arrival=10.0, kind=TaskKind.INTERACTIVE),
        ]
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, 1, 0.4, 0.1), TABLE_II)
        victim = next(r for r in res.records if r.task.kind is TaskKind.NONINTERACTIVE)
        # pure execution time at 1.6 GHz, suspension not counted
        assert victim.busy_seconds == pytest.approx(100.0 * 0.625)
        assert victim.finish - victim.first_start > victim.busy_seconds
        # per-core accounting equals the sum of true busy times
        total_busy = sum(r.busy_seconds for r in res.records)
        assert sum(res.core_busy_seconds) == pytest.approx(total_busy, rel=1e-9)

    def test_accounting_survives_governor_ticks(self):
        """Governor ticks reset the *window* accumulator; the cumulative
        counter must be unaffected."""
        trace = [ni(30.0, 0.0)]
        governors = [OnDemandGovernor(TABLE_II)]
        res = run_online(trace, OnDemandRoundRobinScheduler(1), TABLE_II,
                         governors=governors)
        rec = res.records[0]
        assert res.core_busy_seconds[0] == pytest.approx(
            rec.finish - rec.first_start, rel=1e-9
        )

    @pytest.mark.parametrize("core", [-1, 2])
    def test_core_index_out_of_range_rejected(self, core):
        res = run_online([ni(5.0, 0.0)], LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1),
                         TABLE_II)
        with pytest.raises(ValueError, match=f"core {core} out of range for 2 cores"):
            res.utilisation(core)

    def test_mean_utilisation(self):
        trace = [ni(10.0, 0.0)]
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1), TABLE_II)
        assert res.mean_utilisation() == pytest.approx(
            (res.utilisation(0) + res.utilisation(1)) / 2
        )

    def test_empty_result_guard(self):
        from repro.simulator.online_runner import OnlineResult

        bare = OnlineResult(records=[], horizon=0.0, energy_joules=0.0, events=0)
        with pytest.raises(ValueError):
            bare.utilisation(0)
        assert bare.mean_utilisation() == 0.0
