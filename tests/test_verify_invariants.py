"""Tests for the invariant checker (repro.verify.invariants).

Positive direction: every online policy and the batch schedulers pass a
full audit on a shared workload. Negative direction: a deliberately
corrupted schedule/result trips exactly the check that guards the
corrupted property — a checker that cannot fail verifies nothing.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.batch_multi import WorkloadBasedGreedy
from repro.core.dynamic import DynamicCostIndex
from repro.governors import OnDemandGovernor
from repro.models.cost import CoreSchedule, CostModel, Placement
from repro.models.rates import TABLE_II
from repro.models.task import Task, TaskKind
from repro.schedulers import (
    LMCOnlineScheduler,
    OLBOnlineScheduler,
    OnDemandRoundRobinScheduler,
    SJFMaxRateScheduler,
)
from repro.simulator.online_runner import run_online
from repro.verify import (
    InvariantViolation,
    check_batch_schedules,
    check_dynamic_index,
    check_online_result,
)

N_CORES = 2
RE, RT = 0.4, 0.1


@pytest.fixture(scope="module")
def shared_trace() -> list[Task]:
    """One mixed trace every online policy is audited on."""
    spec = [
        (3.0, 0.0, TaskKind.NONINTERACTIVE),
        (1.0, 0.0, TaskKind.NONINTERACTIVE),     # simultaneous arrival
        (0.5, 0.4, TaskKind.INTERACTIVE),
        (6.0, 1.0, TaskKind.NONINTERACTIVE),
        (2.0, 1.0, TaskKind.INTERACTIVE),        # interactive preempts
        (4.0, 2.5, TaskKind.NONINTERACTIVE),
        (0.25, 3.0, TaskKind.INTERACTIVE),
        (5.0, 3.0, TaskKind.NONINTERACTIVE),
        (1.5, 6.0, TaskKind.NONINTERACTIVE),
    ]
    return [Task(cycles=c, arrival=a, kind=k) for c, a, k in spec]


def _policies():
    yield "lmc", LMCOnlineScheduler(TABLE_II, N_CORES, RE, RT), None
    yield "olb", OLBOnlineScheduler(TABLE_II, N_CORES), None
    yield "sjf", SJFMaxRateScheduler(TABLE_II, N_CORES), None
    yield ("odrr", OnDemandRoundRobinScheduler(N_CORES),
           [OnDemandGovernor(TABLE_II) for _ in range(N_CORES)])


class TestOnlinePolicies:
    def test_every_policy_passes_audit(self, shared_trace):
        tables = [TABLE_II] * N_CORES
        for name, policy, governors in _policies():
            result = run_online(shared_trace, policy, tables, governors=governors)
            report = check_online_result(shared_trace, result, N_CORES, tables)
            assert report.ok, f"{name}: {[str(v) for v in report.violations]}"
            assert report.checks_run > len(shared_trace)  # several checks per record

    def test_missing_record_trips_conservation(self, shared_trace):
        result = run_online(
            shared_trace, OLBOnlineScheduler(TABLE_II, N_CORES), [TABLE_II] * N_CORES
        )
        broken = dataclasses.replace(result, records=result.records[1:])
        report = check_online_result(shared_trace, broken, N_CORES)
        assert any(v.check == "conservation-arrivals" for v in report.violations)

    def test_duplicated_record_trips_completed_once(self, shared_trace):
        result = run_online(
            shared_trace, OLBOnlineScheduler(TABLE_II, N_CORES), [TABLE_II] * N_CORES
        )
        broken = dataclasses.replace(result, records=result.records + result.records[:1])
        report = check_online_result(shared_trace, broken, N_CORES)
        assert any(v.check == "completed-once" for v in report.violations)

    def test_inflated_energy_trips_bounds_and_sum(self, shared_trace):
        result = run_online(
            shared_trace, OLBOnlineScheduler(TABLE_II, N_CORES), [TABLE_II] * N_CORES
        )
        records = list(result.records)
        records[0] = dataclasses.replace(records[0],
                                         energy_joules=records[0].energy_joules * 100)
        broken = dataclasses.replace(result, records=records)
        report = check_online_result(shared_trace, broken, N_CORES, [TABLE_II] * N_CORES)
        failed = {v.check for v in report.violations}
        assert "record-energy-bounds" in failed
        assert "energy-sum" in failed

    def test_infinite_energy_trips_finite_outputs(self):
        # finite input, infinite output: 1e308 cycles finish at a finite
        # time, but watts × seconds overflows, and the energy bounds
        # (cycles × E(p), also inf) admit it
        trace = [Task(cycles=1e308, kind=TaskKind.NONINTERACTIVE)]
        result = run_online(trace, LMCOnlineScheduler(TABLE_II, N_CORES, RE, RT), TABLE_II)
        assert result.energy_joules == float("inf")
        report = check_online_result(trace, result, N_CORES, [TABLE_II] * N_CORES)
        assert [v.check for v in report.violations] == ["finite-outputs"]
        detail = report.violations[0].detail
        assert "result energy_joules=inf" in detail
        assert f"task {trace[0].task_id}: energy_joules=inf" in detail

    def test_raise_if_failed(self, shared_trace):
        result = run_online(
            shared_trace, OLBOnlineScheduler(TABLE_II, N_CORES), [TABLE_II] * N_CORES
        )
        broken = dataclasses.replace(result, records=result.records[1:])
        report = check_online_result(shared_trace, broken, N_CORES)
        with pytest.raises(InvariantViolation, match="conservation-arrivals"):
            report.raise_if_failed()


class TestBatchSchedules:
    @pytest.fixture
    def models(self):
        return [CostModel(TABLE_II, 0.1, 0.4) for _ in range(N_CORES)]

    @pytest.fixture
    def tasks(self):
        return [Task(cycles=c) for c in (8.0, 3.0, 3.0, 1.0, 12.0, 0.5, 7.0)]

    def test_wbg_plan_passes_audit(self, models, tasks):
        schedules = WorkloadBasedGreedy(models).schedule(tasks)
        report = check_batch_schedules(schedules, models, tasks)
        assert report.ok, [str(v) for v in report.violations]

    def test_wrong_rate_trips_dominating_check(self, models, tasks):
        schedules = WorkloadBasedGreedy(models).schedule(tasks)
        sched = schedules[0]
        wrong = TABLE_II.rates[-1] if sched.placements[0].rate != TABLE_II.rates[-1] \
            else TABLE_II.rates[0]
        corrupted = CoreSchedule(
            [Placement(task=sched.placements[0].task, rate=wrong)]
            + list(sched.placements[1:]),
            core_index=sched.core_index,
        )
        report = check_batch_schedules([corrupted] + list(schedules[1:]), models, tasks)
        assert any(v.check == "rate-dominating-range" for v in report.violations)

    def test_swapped_order_trips_theorem3_check(self, models, tasks):
        schedules = WorkloadBasedGreedy(models).schedule(tasks)
        sched = next(s for s in schedules if len(s) >= 2)
        reordered = CoreSchedule(list(sched.placements)[::-1], core_index=sched.core_index)
        others = [s for s in schedules if s is not sched]
        report = check_batch_schedules(others + [reordered], models, tasks)
        assert any(v.check == "order-nondecreasing-cycles" for v in report.violations)

    def test_duplicate_task_trips_scheduled_once(self, models, tasks):
        schedules = WorkloadBasedGreedy(models).schedule(tasks)
        sched = next(s for s in schedules if len(s) >= 1)
        doubled = CoreSchedule(
            list(sched.placements) + [sched.placements[0]], core_index=sched.core_index
        )
        others = [s for s in schedules if s is not sched]
        report = check_batch_schedules(others + [doubled], models, tasks)
        assert any(v.check == "task-scheduled-once" for v in report.violations)

    def test_baseline_flags_relaxed(self, models, tasks):
        # an OLB-style plan (arrival order, max rate) must pass once the
        # Theorem-3/Lemma-3 requirements are waived
        pmax = TABLE_II.max_rate
        half = len(tasks) // 2
        schedules = [
            CoreSchedule([Placement(task=t, rate=pmax) for t in tasks[:half]], core_index=0),
            CoreSchedule([Placement(task=t, rate=pmax) for t in tasks[half:]], core_index=1),
        ]
        report = check_batch_schedules(
            schedules, models, tasks, optimal_order=False, dominating_rates=False
        )
        assert report.ok, [str(v) for v in report.violations]


class TestDynamicIndex:
    def test_live_index_passes(self):
        idx = DynamicCostIndex(CostModel(TABLE_II, 0.1, 0.4))
        nodes = [idx.insert(c) for c in (5.0, 1.0, 9.0, 2.0, 2.0)]
        idx.delete(nodes[2])
        report = check_dynamic_index(idx)
        assert report.ok

    def test_corrupted_aggregate_trips(self):
        idx = DynamicCostIndex(CostModel(TABLE_II, 0.1, 0.4))
        for c in (5.0, 1.0, 9.0):
            idx.insert(c)
        idx._x[0] += 1.0  # sabotage ξ for the first dominating range
        report = check_dynamic_index(idx)
        assert not report.ok
