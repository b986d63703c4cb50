"""Tests for the batch plan generators (WBG wrapper, OLB, PS, round robin)."""

import pytest
from hypothesis import given, settings, strategies as st

from strategies import cycle_lists
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II, rate_table_from_power_law
from repro.models.task import Task
from repro.schedulers import olb_plan, power_saving_plan, round_robin_plan, wbg_plan
from repro.simulator.batch_runner import run_batch


def tasks_of(cycles):
    return [Task(cycles=c) for c in cycles]


class TestOLBPlan:
    def test_earliest_ready_assignment(self):
        # OLB fills the least-loaded core (in seconds at the plan rate)
        tasks = tasks_of([30.0, 10.0, 5.0, 4.0])
        plan = olb_plan(tasks, TABLE_II, 2)
        by_core = {s.core_index: [pl.task.cycles for pl in s] for s in plan}
        assert by_core[0] == [30.0]  # the big task monopolises core 0
        assert by_core[1] == [10.0, 5.0, 4.0]

    def test_keeps_submission_order_within_core(self):
        tasks = tasks_of([10.0, 1.0, 1.0, 1.0])
        plan = olb_plan(tasks, TABLE_II, 1)
        assert [pl.task.cycles for pl in plan[0]] == [10.0, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize("cycles", [
        [2.0] * 13,  # every round is a four-way tie
        [3.0, 1.0, 2.0, 1.0, 1.0, 2.0, 3.0, 1.0, 2.0, 2.0, 1.0, 1.0],
    ])
    def test_ties_go_to_the_lowest_core_index(self, cycles):
        """The earliest-ready core wins; equal ready times go to the
        lowest index, as the readable ``(ready[i], i)`` key says."""
        tasks = tasks_of(cycles)
        seconds = TABLE_II.time(TABLE_II.max_rate)
        ready = [0.0] * 4
        expected: list[list[int]] = [[] for _ in range(4)]
        for task in tasks:
            j = min(range(4), key=lambda i: (ready[i], i))
            expected[j].append(task.task_id)
            ready[j] += task.cycles * seconds
        plan = olb_plan(tasks, TABLE_II, 4)
        assert [[pl.task.task_id for pl in s] for s in plan] == expected

    def test_defaults_to_max_rate(self):
        plan = olb_plan(tasks_of([5.0]), TABLE_II, 1)
        assert plan[0].placements[0].rate == 3.0

    def test_explicit_rate_validated(self):
        with pytest.raises(KeyError):
            olb_plan(tasks_of([5.0]), TABLE_II, 1, rate=2.5)
        with pytest.raises(ValueError):
            olb_plan(tasks_of([5.0]), TABLE_II, 0)

    @settings(max_examples=40, deadline=None)
    @given(cycle_lists(1, 25), st.integers(1, 6))
    def test_covers_all_tasks_once(self, cycles, n_cores):
        tasks = tasks_of(cycles)
        plan = olb_plan(tasks, TABLE_II, n_cores)
        placed = sorted(pl.task.task_id for s in plan for pl in s)
        assert placed == sorted(t.task_id for t in tasks)

    @settings(max_examples=30, deadline=None)
    @given(cycle_lists(1, 20), st.integers(2, 5))
    def test_balances_within_largest_task(self, cycles, n_cores):
        """Greedy list scheduling: core loads differ by at most one task."""
        tasks = tasks_of(cycles)
        plan = olb_plan(tasks, TABLE_II, n_cores)
        t = TABLE_II.time(3.0)
        loads = sorted(sum(pl.task.cycles * t for pl in s) for s in plan)
        biggest = max(cycles) * t
        assert loads[-1] - loads[0] <= biggest + 1e-9


class TestPowerSavingPlan:
    def test_rates_capped_at_restricted_max(self):
        plan = power_saving_plan(tasks_of([5.0, 8.0, 2.0]), TABLE_II, 2)
        for s in plan:
            for pl in s:
                assert pl.rate == 2.4

    def test_uses_less_energy_but_more_time_than_olb(self, batch_model):
        tasks = tasks_of([40.0, 25.0, 60.0, 10.0, 35.0])
        ps = run_batch(power_saving_plan(tasks, TABLE_II, 2), TABLE_II).cost(0.1, 0.4)
        olb = run_batch(olb_plan(tasks, TABLE_II, 2), TABLE_II).cost(0.1, 0.4)
        assert ps.energy_cost < olb.energy_cost
        assert ps.temporal_cost > olb.temporal_cost


class TestRoundRobinPlan:
    def test_strict_rotation(self):
        tasks = tasks_of([1.0, 2.0, 3.0, 4.0, 5.0])
        plan = round_robin_plan(tasks, TABLE_II, 2)
        by_core = {s.core_index: [pl.task.cycles for pl in s] for s in plan}
        assert by_core[0] == [1.0, 3.0, 5.0]
        assert by_core[1] == [2.0, 4.0]

    def test_fixed_rate(self):
        plan = round_robin_plan(tasks_of([1.0]), TABLE_II, 1, rate=2.0)
        assert plan[0].placements[0].rate == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            round_robin_plan([], TABLE_II, 0)


class TestWBGWrapper:
    def test_homogeneous_signature(self):
        plan = wbg_plan(tasks_of([5.0, 1.0, 3.0]), TABLE_II, 2, 0.1, 0.4)
        assert len(plan) == 2
        assert sum(len(s) for s in plan) == 3

    def test_heterogeneous_signature(self):
        little = rate_table_from_power_law([1.0, 1.5], dynamic_coefficient=0.3)
        plan = wbg_plan(tasks_of([5.0, 1.0]), [TABLE_II, little], 2, 0.1, 0.4)
        for s in plan:
            table = [TABLE_II, little][s.core_index]
            for pl in s:
                assert pl.rate in table

    def test_table_count_mismatch(self):
        with pytest.raises(ValueError):
            wbg_plan(tasks_of([1.0]), [TABLE_II], 2, 0.1, 0.4)
        with pytest.raises(ValueError):
            wbg_plan(tasks_of([1.0]), TABLE_II, 0, 0.1, 0.4)

    @settings(max_examples=30, deadline=None)
    @given(cycle_lists(1, 15), st.integers(1, 4))
    def test_wbg_beats_or_ties_every_baseline(self, cycles, n_cores):
        """Theorem 5 consequence: WBG's cost ≤ OLB's, PS's, and RR's."""
        tasks = tasks_of(cycles)
        model = CostModel(TABLE_II, 0.1, 0.4)
        wbg_cost = run_batch(
            wbg_plan(tasks, TABLE_II, n_cores, 0.1, 0.4), TABLE_II
        ).cost(0.1, 0.4).total_cost
        for plan in (
            olb_plan(tasks, TABLE_II, n_cores),
            power_saving_plan(tasks, TABLE_II, n_cores),
            round_robin_plan(tasks, TABLE_II, n_cores),
        ):
            other = run_batch(plan, TABLE_II).cost(0.1, 0.4).total_cost
            assert wbg_cost <= other + 1e-9 * max(1.0, other)
