"""Tests for the online event-driven runner (Section IV mechanics)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.governors import OnDemandGovernor
from repro.models.rates import TABLE_II
from repro.models.task import Task, TaskKind
from repro.schedulers import (
    LMCOnlineScheduler,
    OLBOnlineScheduler,
    OnDemandRoundRobinScheduler,
)
from repro.simulator.online_runner import run_online
from repro.workloads import JudgeTraceConfig, generate_judge_trace


def interactive(cycles, arrival, name=""):
    return Task(cycles=cycles, arrival=arrival, kind=TaskKind.INTERACTIVE, name=name)


def noninteractive(cycles, arrival, name=""):
    return Task(cycles=cycles, arrival=arrival, kind=TaskKind.NONINTERACTIVE, name=name)


class TestBasicMechanics:
    def test_single_noninteractive_task(self):
        trace = [noninteractive(10.0, 0.0)]
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, 1, 0.4, 0.1), TABLE_II)
        assert len(res.records) == 1
        rec = res.records[0]
        # alone in the system → backward position 1 → 1.6 GHz under LMC
        assert rec.finish == pytest.approx(10.0 * 0.625)
        assert rec.energy_joules == pytest.approx(10.0 * 3.375)

    def test_single_interactive_runs_at_max(self):
        trace = [interactive(3.0, 0.0)]
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, 1, 0.4, 0.1), TABLE_II)
        rec = res.records[0]
        assert rec.finish == pytest.approx(3.0 * 0.33)
        assert rec.energy_joules == pytest.approx(3.0 * 7.1)

    def test_every_task_completes_exactly_once(self):
        trace = [noninteractive(5.0, float(i)) for i in range(10)] + [
            interactive(0.5, 2.5 + i) for i in range(5)
        ]
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1), TABLE_II)
        assert sorted(r.task.task_id for r in res.records) == sorted(
            t.task_id for t in trace
        )

    def test_arrival_time_respected(self):
        trace = [noninteractive(1.0, 100.0)]
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, 1, 0.4, 0.1), TABLE_II)
        assert res.records[0].first_start == pytest.approx(100.0)
        assert res.records[0].turnaround == pytest.approx(1.0 * 0.625)


class TestPreemption:
    def test_interactive_preempts_noninteractive(self):
        trace = [
            noninteractive(100.0, 0.0, "big"),
            interactive(3.0, 10.0, "query"),
        ]
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, 1, 0.4, 0.1), TABLE_II)
        by_name = {r.task.name: r for r in res.records}
        q = by_name["query"]
        assert q.first_start == pytest.approx(10.0)  # immediate despite busy core
        assert q.finish == pytest.approx(10.0 + 3.0 * 0.33)
        big = by_name["big"]
        assert big.preemptions == 1
        # preempted work resumes and conserves total cycles:
        # 10s at 1.6 = 16 cycles done; 84 left at 1.6 after the query
        assert big.finish == pytest.approx(q.finish + 84.0 * 0.625)
        assert big.energy_joules == pytest.approx(100.0 * 3.375)

    def test_interactive_does_not_preempt_interactive(self):
        trace = [
            interactive(6.0, 0.0, "first"),
            interactive(6.0, 0.5, "second"),
        ]
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, 1, 0.4, 0.1), TABLE_II)
        by_name = {r.task.name: r for r in res.records}
        assert by_name["first"].preemptions == 0
        assert by_name["second"].first_start == pytest.approx(6.0 * 0.33)

    def test_interactive_fifo_queue(self):
        trace = [interactive(6.0, 0.0, f"q{i}") for i in range(3)]
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, 1, 0.4, 0.1), TABLE_II)
        finishes = [r.finish for r in sorted(res.records, key=lambda r: r.task.name)]
        step = 6.0 * 0.33
        assert finishes == pytest.approx([step, 2 * step, 3 * step])

    def test_resume_waits_for_all_pending_interactive(self):
        trace = [
            noninteractive(10.0, 0.0, "ni"),
            interactive(6.0, 1.0, "q1"),
            interactive(6.0, 1.5, "q2"),
        ]
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, 1, 0.4, 0.1), TABLE_II)
        by_name = {r.task.name: r for r in res.records}
        # ni resumes only after q1 and q2 both finish
        assert by_name["ni"].finish > by_name["q2"].finish
        assert by_name["ni"].energy_joules == pytest.approx(10.0 * 3.375)


class TestLMCRateAdaptation:
    def test_running_rate_rises_with_queue(self):
        # 30 queued tasks push the running task's backward position to 31,
        # which under Re=0.4/Rt=0.1 still maps to 2.0 GHz (D_2.0 = [28, 39))
        trace = [noninteractive(50.0, 0.0, "head")] + [
            noninteractive(50.0, 0.001, f"w{i}") for i in range(30)
        ]
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, 1, 0.4, 0.1), TABLE_II)
        head = next(r for r in res.records if r.task.name == "head")
        # the head sped up after the queue grew: it must finish faster than
        # it would have at a constant 1.6 GHz
        assert head.finish < 50.0 * 0.625

    def test_noninteractive_choice_balances_load(self):
        trace = [noninteractive(50.0, 0.0), noninteractive(50.0, 0.1)]
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1), TABLE_II)
        assert {r.core for r in res.records} == {0, 1}


class TestOLBPolicy:
    def test_balances_across_cores(self):
        trace = [noninteractive(50.0, float(i) * 0.01) for i in range(4)]
        res = run_online(trace, OLBOnlineScheduler(TABLE_II, 4), TABLE_II)
        assert {r.core for r in res.records} == {0, 1, 2, 3}

    def test_runs_at_max_rate(self):
        trace = [noninteractive(30.0, 0.0)]
        res = run_online(trace, OLBOnlineScheduler(TABLE_II, 2), TABLE_II)
        assert res.records[0].finish == pytest.approx(30.0 * 0.33)
        assert res.records[0].energy_joules == pytest.approx(30.0 * 7.1)

    def test_fifo_within_core(self):
        trace = [
            noninteractive(30.0, 0.0, "first"),
            noninteractive(1.0, 0.1, "tiny"),
        ]
        res = run_online(trace, OLBOnlineScheduler(TABLE_II, 1), TABLE_II)
        by_name = {r.task.name: r for r in res.records}
        # FIFO: tiny waits for first despite being shorter
        assert by_name["tiny"].first_start == pytest.approx(by_name["first"].finish)


class TestOnDemandPolicy:
    def test_round_robin_placement(self):
        trace = [noninteractive(5.0, float(i)) for i in range(4)]
        governors = [OnDemandGovernor(TABLE_II) for _ in range(2)]
        res = run_online(
            trace, OnDemandRoundRobinScheduler(2), TABLE_II, governors=governors
        )
        cores = [r.core for r in sorted(res.records, key=lambda r: r.task.arrival)]
        assert cores == [0, 1, 0, 1]

    def test_governor_steps_down_when_idle(self):
        # a task arriving late meets a core that has stepped down to 1.6 GHz
        trace = [noninteractive(10.0, 10.0)]
        governors = [OnDemandGovernor(TABLE_II)]
        res = run_online(
            trace, OnDemandRoundRobinScheduler(1), TABLE_II, governors=governors
        )
        rec = res.records[0]
        # the first second of execution happens below max rate; with the
        # threshold at 85% the next tick jumps to max. Either way the task
        # cannot finish as fast as an all-max run.
        assert rec.finish - rec.first_start > 10.0 * 0.33

    def test_governor_ramps_up_under_load(self):
        trace = [noninteractive(100.0, 0.0)]
        governors = [OnDemandGovernor(TABLE_II)]
        res = run_online(
            trace, OnDemandRoundRobinScheduler(1), TABLE_II, governors=governors
        )
        rec = res.records[0]
        # initial rate is max (ondemand initial_rate), stays max while loaded
        assert rec.finish == pytest.approx(100.0 * 0.33, rel=0.05)


class TestConservationProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_random_trace_conserves_work_and_energy(self, seed, n_cores):
        cfg = JudgeTraceConfig(
            n_interactive=40, n_noninteractive=15, duration_s=60.0, seed=seed
        )
        trace = generate_judge_trace(cfg)
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, n_cores, 0.4, 0.1), TABLE_II)
        assert len(res.records) == len(trace)
        for rec in res.records:
            assert rec.finish >= rec.first_start >= rec.task.arrival
            # energy bounded by the min/max per-cycle energies
            assert rec.energy_joules >= rec.task.cycles * TABLE_II.energy(1.6) - 1e-6
            assert rec.energy_joules <= rec.task.cycles * TABLE_II.energy(3.0) + 1e-6
        assert res.horizon == pytest.approx(max(r.finish for r in res.records))

    def test_interactive_energy_is_exactly_max_rate(self):
        cfg = JudgeTraceConfig(
            n_interactive=25, n_noninteractive=5, duration_s=30.0, seed=3
        )
        trace = generate_judge_trace(cfg)
        res = run_online(trace, LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1), TABLE_II)
        for rec in res.by_kind(TaskKind.INTERACTIVE):
            assert rec.energy_joules == pytest.approx(
                rec.task.cycles * TABLE_II.energy(3.0), rel=1e-9
            )


class TestValidation:
    def test_governor_count_mismatch(self):
        with pytest.raises(ValueError):
            run_online(
                [],
                OnDemandRoundRobinScheduler(2),
                TABLE_II,
                governors=[OnDemandGovernor(TABLE_II)],
            )

    def test_empty_trace_ok(self):
        res = run_online([], LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1), TABLE_II)
        assert res.records == []
        assert res.horizon == 0.0


class TestQoSMetrics:
    """Deadline/QoS metrics of OnlineResult (Section II-A deadlines)."""

    def test_miss_rate_and_percentiles(self):
        # one slow query stuck behind another → the second misses a 0.5 s SLO
        tasks = [
            Task(cycles=1.0, arrival=0.0, deadline=0.5, kind=TaskKind.INTERACTIVE),
            Task(cycles=1.0, arrival=0.0, deadline=0.35, kind=TaskKind.INTERACTIVE),
        ]
        res = run_online(tasks, LMCOnlineScheduler(TABLE_II, 1, 0.4, 0.1), TABLE_II)
        # completion times: 0.33 and 0.66 → the second (deadline 0.35 or 0.5
        # depending on queueing order) — exactly one miss either way
        assert res.deadline_misses(TaskKind.INTERACTIVE) == 1
        assert res.deadline_miss_rate(TaskKind.INTERACTIVE) == pytest.approx(0.5)
        p100 = res.response_percentile(TaskKind.INTERACTIVE, 1.0)
        p0 = res.response_percentile(TaskKind.INTERACTIVE, 0.0)
        assert p100 >= p0 >= 0.0
        with pytest.raises(ValueError):
            res.response_percentile(TaskKind.INTERACTIVE, 1.5)

    def test_no_deadline_tasks_never_miss(self):
        tasks = [Task(cycles=5.0, arrival=0.0, kind=TaskKind.NONINTERACTIVE)]
        res = run_online(tasks, LMCOnlineScheduler(TABLE_II, 1, 0.4, 0.1), TABLE_II)
        assert res.deadline_misses() == 0
        assert res.deadline_miss_rate() == 0.0
        assert res.response_percentile(TaskKind.INTERACTIVE, 0.99) == 0.0
