"""Tests for the batch execution runner."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cost_models, cycle_lists
from repro.models.cost import CoreSchedule, CostModel, Placement
from repro.models.rates import TABLE_II
from repro.models.task import Task
from repro.schedulers import olb_plan, wbg_plan
from repro.simulator.batch_runner import run_batch
from repro.simulator.contention import CALIBRATED_X86, ContentionModel
from repro.simulator.platform import SimCore


class TestIdlePowerValidation:
    @pytest.mark.parametrize("idle_power", [-1.0, math.nan])
    def test_bad_idle_power_rejected(self, idle_power):
        sched = CoreSchedule([Placement(Task(cycles=10.0), 2.0)])
        with pytest.raises(ValueError, match="idle_power"):
            run_batch([sched], TABLE_II, idle_power=idle_power)


class TestIdealRuns:
    def test_single_core_single_task(self, batch_model):
        sched = CoreSchedule([Placement(Task(cycles=10.0), 2.0)])
        res = run_batch([sched], TABLE_II)
        assert res.makespan == pytest.approx(5.0)
        assert res.energy_joules == pytest.approx(42.2)
        assert len(res.records) == 1
        rec = res.records[0]
        assert rec.start == 0.0
        assert rec.finish == pytest.approx(5.0)
        assert rec.rate == 2.0

    def test_sequential_tasks_back_to_back(self):
        tasks = [Task(cycles=4.0), Task(cycles=6.0)]
        sched = CoreSchedule([Placement(tasks[0], 2.0), Placement(tasks[1], 3.0)])
        res = run_batch([sched], TABLE_II)
        r0 = res.record_for(tasks[0].task_id)
        r1 = res.record_for(tasks[1].task_id)
        assert r0.finish == pytest.approx(2.0)
        assert r1.start == pytest.approx(2.0)
        assert r1.finish == pytest.approx(2.0 + 6.0 * 0.33)

    def test_parallel_cores_independent(self):
        a = CoreSchedule([Placement(Task(cycles=10.0), 2.0)], core_index=0)
        b = CoreSchedule([Placement(Task(cycles=30.0), 3.0)], core_index=1)
        res = run_batch([a, b], TABLE_II)
        assert res.makespan == pytest.approx(max(5.0, 9.9))

    def test_duplicate_core_indices_rejected(self):
        a = CoreSchedule([Placement(Task(cycles=1.0), 2.0)], core_index=0)
        b = CoreSchedule([Placement(Task(cycles=1.0), 2.0)], core_index=0)
        with pytest.raises(ValueError, match="duplicate"):
            run_batch([a, b], TABLE_II)

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            run_batch([], TABLE_II)

    def test_empty_core_is_fine(self):
        a = CoreSchedule([], core_index=0)
        b = CoreSchedule([Placement(Task(cycles=1.0), 2.0)], core_index=1)
        res = run_batch([a, b], TABLE_II)
        assert len(res.records) == 1

    def test_non_finite_completion_raises_runtime_error(self, monkeypatch):
        # a real exception, not an assert that python -O would strip
        monkeypatch.setattr(SimCore, "next_completion_time", lambda self, now: math.inf)
        a = CoreSchedule([], core_index=0)
        b = CoreSchedule([Placement(Task(cycles=1.0), 2.0)], core_index=1)
        with pytest.raises(RuntimeError, match=r"stalled at t=0\.0: busy cores \[1\]"):
            run_batch([a, b], TABLE_II)

    def test_missing_record_raises(self):
        sched = CoreSchedule([Placement(Task(cycles=1.0), 2.0)])
        res = run_batch([sched], TABLE_II)
        with pytest.raises(KeyError):
            res.record_for(-1)

    def test_cost_conversion_validates_prices(self):
        sched = CoreSchedule([Placement(Task(cycles=1.0), 2.0)])
        res = run_batch([sched], TABLE_II)
        with pytest.raises(ValueError):
            res.cost(0.0, 1.0)

    @pytest.mark.parametrize("re, rt", [(math.nan, 0.4), (0.1, math.nan),
                                        (math.inf, 0.4), (0.1, math.inf), (0.1, -math.inf)])
    def test_cost_rejects_non_finite_prices(self, re, rt):
        res = run_batch([CoreSchedule([Placement(Task(cycles=1.0), 2.0)])], TABLE_II)
        with pytest.raises(ValueError, match="must be (finite|positive)"):
            res.cost(re, rt)


class TestSimEqualsAnalyticModel:
    """Without contention the runner must reproduce Equations 1-8 exactly."""

    @settings(max_examples=30, deadline=None)
    @given(cost_models(min_rates=1, max_rates=5), cycle_lists(1, 12), st.integers(1, 4))
    def test_wbg_plan_measured_equals_predicted(self, model, cycles, n_cores):
        tasks = [Task(cycles=c) for c in cycles]
        plan = wbg_plan(tasks, model.table, n_cores, model.re, model.rt)
        res = run_batch(plan, model.table)
        measured = res.cost(model.re, model.rt)
        predicted = model.schedule_cost(plan)
        assert measured.total_cost == pytest.approx(predicted.total_cost, rel=1e-9)
        assert measured.energy_joules == pytest.approx(predicted.energy_joules, rel=1e-9)
        assert measured.makespan == pytest.approx(predicted.makespan, rel=1e-9)
        assert measured.turnaround_sum == pytest.approx(predicted.turnaround_sum, rel=1e-9)

    def test_spec_batch_exact(self, batch_model):
        from repro.workloads.spec import spec_tasks

        tasks = spec_tasks()
        plan = wbg_plan(tasks, TABLE_II, 4, 0.1, 0.4)
        res = run_batch(plan, TABLE_II)
        predicted = batch_model.schedule_cost(plan)
        assert res.cost(0.1, 0.4).total_cost == pytest.approx(
            predicted.total_cost, rel=1e-9
        )


class TestContentionRuns:
    def test_contention_strictly_inflates_cost(self, batch_model):
        from repro.workloads.spec import spec_tasks

        tasks = spec_tasks()
        plan = olb_plan(tasks, TABLE_II, 4)
        ideal = run_batch(plan, TABLE_II).cost(0.1, 0.4)
        loaded = run_batch(plan, TABLE_II, contention=CALIBRATED_X86).cost(0.1, 0.4)
        assert loaded.total_cost > ideal.total_cost
        assert loaded.energy_cost > ideal.energy_cost
        assert loaded.temporal_cost > ideal.temporal_cost

    def test_corun_only_affects_overlap(self):
        # one busy core: zero co-runners → contention slowdown inert
        cont = ContentionModel(slowdown_per_corunner=0.5)
        sched = CoreSchedule([Placement(Task(cycles=10.0), 2.0)])
        res = run_batch([sched], TABLE_II, contention=cont)
        assert res.makespan == pytest.approx(5.0)

    def test_two_equal_cores_slow_each_other(self):
        cont = ContentionModel(slowdown_per_corunner=0.5)
        a = CoreSchedule([Placement(Task(cycles=10.0), 2.0)], core_index=0)
        b = CoreSchedule([Placement(Task(cycles=10.0), 2.0)], core_index=1)
        res = run_batch([a, b], TABLE_II, contention=cont)
        # both run the whole time with 1 co-runner: 5 s × 1.5
        assert res.makespan == pytest.approx(7.5)

    def test_completion_releases_pressure(self):
        cont = ContentionModel(slowdown_per_corunner=1.0)  # 2× with one peer
        a = CoreSchedule([Placement(Task(cycles=2.0), 2.0)], core_index=0)
        b = CoreSchedule([Placement(Task(cycles=10.0), 2.0)], core_index=1)
        res = run_batch([a, b], TABLE_II, contention=cont)
        ra = res.record_for(a.placements[0].task.task_id)
        rb = res.record_for(b.placements[0].task.task_id)
        # core 0 finishes its 2 cycles at 2× tpc = 2 s wall
        assert ra.finish == pytest.approx(2.0)
        # core 1: 2 cycles at doubled tpc (2 s), then 8 cycles alone (4 s)
        assert rb.finish == pytest.approx(2.0 + 8.0 * 0.5)


class TestHeterogeneousTables:
    def test_per_core_tables(self):
        from repro.models.rates import rate_table_from_power_law

        little = rate_table_from_power_law([1.0, 1.5], dynamic_coefficient=0.3)
        a = CoreSchedule([Placement(Task(cycles=3.0), 3.0)], core_index=0)
        b = CoreSchedule([Placement(Task(cycles=3.0), 1.5)], core_index=1)
        res = run_batch([a, b], [TABLE_II, little])
        ra, rb = res.records[0], res.records[1]
        by_core = {r.core: r for r in res.records}
        assert by_core[0].finish == pytest.approx(3.0 * 0.33)
        assert by_core[1].finish == pytest.approx(3.0 / 1.5)

    @pytest.mark.parametrize("core_index", [-1, 2, 5])
    def test_core_index_outside_table_list_rejected(self, core_index):
        from repro.models.rates import rate_table_from_power_law

        slow = rate_table_from_power_law([1.0, 1.5], dynamic_coefficient=0.3)
        sched = CoreSchedule([Placement(Task(cycles=3.0), 1.5)], core_index=core_index)
        with pytest.raises(ValueError, match=f"core_index {core_index} .* 2 tables"):
            run_batch([sched], [TABLE_II, slow])

    def test_shared_table_accepts_any_core_index(self):
        sched = CoreSchedule([Placement(Task(cycles=4.0), 2.0)], core_index=50)
        assert run_batch([sched], TABLE_II).makespan == pytest.approx(2.0)
