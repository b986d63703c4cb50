"""Edge-case and failure-injection tests for the online runner."""

import math

import pytest

from repro.governors import Governor, OnDemandGovernor
from repro.models.rates import TABLE_II, RateTable
from repro.models.task import Task, TaskKind
from repro.schedulers import LMCOnlineScheduler, OLBOnlineScheduler, OnDemandRoundRobinScheduler
from repro.simulator import run_online
from repro.simulator.online_runner import CoreView
from repro.simulator.platform import SimCore


def ni(cycles, arrival, name=""):
    return Task(cycles=cycles, arrival=arrival, kind=TaskKind.NONINTERACTIVE, name=name)


def inter(cycles, arrival, name=""):
    return Task(cycles=cycles, arrival=arrival, kind=TaskKind.INTERACTIVE, name=name)


class MaxGovernor(Governor):
    """Always the table maximum, whatever the load."""

    def on_sample(self, load, current_rate):
        return self.table.max_rate


class StepUpGovernor(Governor):
    """Starts at the table minimum and climbs one level per sample."""

    def initial_rate(self):
        return self.table.min_rate

    def on_sample(self, load, current_rate):
        rates = self.table.rates
        return rates[min(len(rates) - 1, rates.index(current_rate) + 1)]


class TestSimultaneousEvents:
    def test_many_tasks_same_instant(self):
        trace = [ni(5.0, 1.0, f"t{i}") for i in range(10)]
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1), TABLE_II)
        assert len(res.records) == 10
        # deterministic tie-break: same inputs give same outputs
        res2 = run_online(trace, LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1), TABLE_II)
        assert [r.task.task_id for r in res.records] == [
            r.task.task_id for r in res2.records
        ]

    def test_interactive_arrives_exactly_at_ni_completion(self):
        # ni finishes at t = 10·0.625 = 6.25 under LMC; interactive at 6.25
        trace = [ni(10.0, 0.0, "ni"), inter(1.0, 6.25, "q")]
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, 1, 0.4, 0.1), TABLE_II)
        by_name = {r.task.name: r for r in res.records}
        assert by_name["ni"].preemptions == 0  # no preemption of a done task
        assert by_name["q"].first_start == pytest.approx(6.25)

    def test_mixed_kinds_same_instant(self):
        trace = [ni(5.0, 2.0), inter(0.5, 2.0), ni(3.0, 2.0), inter(0.5, 2.0)]
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1), TABLE_II)
        assert len(res.records) == 4


class TestPreemptionChains:
    def test_repeated_preemption_of_one_task(self):
        trace = [ni(100.0, 0.0, "victim")] + [
            inter(1.0, 5.0 + 3.0 * i, f"q{i}") for i in range(8)
        ]
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, 1, 0.4, 0.1), TABLE_II)
        victim = next(r for r in res.records if r.task.name == "victim")
        assert victim.preemptions == 8
        # total energy conserved: 100 Gc at 1.6 GHz throughout
        assert victim.energy_joules == pytest.approx(100.0 * TABLE_II.energy(1.6))

    def test_interactive_burst_during_preemption(self):
        trace = [ni(50.0, 0.0, "victim")] + [inter(2.0, 1.0, f"q{i}") for i in range(5)]
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, 1, 0.4, 0.1), TABLE_II)
        victim = next(r for r in res.records if r.task.name == "victim")
        queries = sorted(
            (r for r in res.records if r.task.name.startswith("q")),
            key=lambda r: r.first_start,
        )
        # queries run back-to-back; victim resumes only after the last one
        assert victim.preemptions == 1  # preempted once, then stayed suspended
        assert victim.finish > queries[-1].finish
        for a, b in zip(queries, queries[1:]):
            assert b.first_start == pytest.approx(a.finish)


class TestGovernorEdgeCases:
    def test_performance_governor_is_max_everywhere(self):
        trace = [ni(10.0, 0.0), ni(10.0, 40.0)]
        governors = [MaxGovernor(TABLE_II)]
        res = run_online(trace, OnDemandRoundRobinScheduler(1), TABLE_II,
                         governors=governors)
        for rec in res.records:
            assert rec.energy_joules == pytest.approx(10.0 * TABLE_II.energy(3.0))

    def test_conservative_climbs_slowly(self):
        # long task starting from the table minimum; each tick raises the
        # running task's rate one level mid-task
        trace = [ni(60.0, 0.0)]
        governors = [StepUpGovernor(TABLE_II)]
        res = run_online(trace, OnDemandRoundRobinScheduler(1), TABLE_II,
                         governors=governors)
        rec = res.records[0]
        # slower than all-max, faster than all-min
        assert 60.0 * 0.33 < rec.finish < 60.0 * 0.625

    def test_huge_sampling_period_never_ticks(self):
        gov = OnDemandGovernor(TABLE_II)
        gov.sampling_period = 1e9
        trace = [ni(10.0, 0.0)]
        res = run_online(trace, OnDemandRoundRobinScheduler(1), TABLE_II,
                         governors=[gov])
        # initial rate is max; no tick ever changes it
        assert res.records[0].finish == pytest.approx(10.0 * 0.33)

    @pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf])
    def test_sampling_period_must_be_positive_and_finite(self, period):
        # rejected before the run: 0 would re-arm ticks at one instant
        # until the runaway guard, inf would fire ticks at t = inf
        bad = OnDemandGovernor(TABLE_II)
        bad.sampling_period = period
        policy = OnDemandRoundRobinScheduler(2)
        arrivals = []
        policy.select_core = lambda task, views: arrivals.append(task) or 0
        with pytest.raises(ValueError, match="governor 1: sampling_period must be "
                                             "positive and finite"):
            run_online([ni(1.0, 0.0)], policy, TABLE_II,
                       governors=[OnDemandGovernor(TABLE_II), bad])
        assert arrivals == []

    def test_ticks_stop_after_last_completion(self):
        gov = OnDemandGovernor(TABLE_II)
        trace = [ni(1.0, 0.0)]
        res = run_online(trace, OnDemandRoundRobinScheduler(1), TABLE_II,
                         governors=[gov])
        # the run terminates (no infinite tick loop) and fired few events
        assert res.events < 50


class TestPolicyContractViolations:
    def test_invalid_core_selection_rejected(self):
        class Broken(OnDemandRoundRobinScheduler):
            def select_core(self, task, views):
                return 99

        with pytest.raises(ValueError, match="invalid core"):
            run_online([ni(1.0, 0.0)], Broken(2), TABLE_II,
                       governors=None)

    def test_policy_rate_outside_menu_rejected(self):
        class BadRate(OnDemandRoundRobinScheduler):
            def rate_for_noninteractive(self, core, task):
                return 9.99

        with pytest.raises(KeyError):
            run_online([ni(1.0, 0.0)], BadRate(1), TABLE_II)

    @pytest.mark.parametrize("n_tables", [1, 3])
    def test_table_count_must_match_cores(self, n_tables):
        with pytest.raises(ValueError, match=f"got {n_tables} for 2 cores"):
            run_online([ni(1.0, 0.0)], LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1),
                       [TABLE_II] * n_tables)


class TestPricing:
    @pytest.mark.parametrize("re, rt", [(math.nan, 0.1), (0.4, math.nan),
                                        (math.inf, 0.1), (0.4, math.inf), (0.4, -math.inf)])
    def test_cost_rejects_non_finite_prices(self, re, rt):
        res = run_online([ni(1.0, 0.0)], LMCOnlineScheduler(TABLE_II, 1, 0.4, 0.1), TABLE_II)
        with pytest.raises(ValueError, match="must be (finite|positive)"):
            res.cost(re, rt)


class TestCoreViewSnapshot:
    def test_views_reflect_progress(self):
        observed = []

        class Spy(OnDemandRoundRobinScheduler):
            def select_core(self, task, views):
                observed.append([v.running_remaining_cycles for v in views])
                return super().select_core(task, views)

        trace = [ni(10.0, 0.0), ni(1.0, 2.0)]
        run_online(trace, Spy(1), TABLE_II,
                   governors=[MaxGovernor(TABLE_II)])
        # second arrival at t=2: first task ran 2 s at 3 GHz → ~6.06 Gc done
        assert observed[1][0] == pytest.approx(10.0 - 2.0 / 0.33, rel=1e-6)

    def test_view_fields_complete(self):
        captured = {}

        class Spy(OnDemandRoundRobinScheduler):
            def select_core(self, task, views):
                captured["v"] = views[0]
                return 0

        run_online([ni(1.0, 0.0)], Spy(1), TABLE_II)
        v = captured["v"]
        assert isinstance(v, CoreView)
        assert v.index == 0
        assert v.running_kind is None
        assert v.interactive_waiting == 0


class TestNonFiniteCompletion:
    def test_overflowing_completion_time_raises_runtime_error(self):
        # 1e308 cycles at 2 s/cycle overflows to inf; the guard must be a
        # real exception (an assert would vanish under python -O)
        table = RateTable([0.5], [1.0], [2.0])
        with pytest.raises(RuntimeError, match=r"core 0: task \d+ \('huge'\)"):
            run_online([ni(1e308, 0.0, "huge")], OLBOnlineScheduler(table, 1), table)


class TestRuntimeGuards:
    def test_completion_without_start_stamp_raises_runtime_error(self, monkeypatch):
        complete = SimCore.complete

        def unstamped(self, now):
            execution = complete(self, now)
            execution.started_at = None
            return execution

        monkeypatch.setattr(SimCore, "complete", unstamped)
        with pytest.raises(RuntimeError, match=r"core 0: task \d+ completed at t=0\.625 "
                                               r"without start/finish stamps"):
            run_online([ni(1.0, 0.0)], LMCOnlineScheduler(TABLE_II, 1, 0.4, 0.1), TABLE_II)
