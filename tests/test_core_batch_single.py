"""Tests for Algorithm 2 — optimal single-core batch scheduling."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from strategies import cost_models, cycle_lists
from repro.core.batch_single import (
    brute_force_single_core,
    schedule_cost_lower_bound,
    schedule_single_core,
)
from repro.core.dominating import DominatingRanges
from repro.models.cost import CoreSchedule, CostModel, Placement
from repro.models.rates import RateTable, TABLE_II
from repro.models.task import Task


class TestOrdering:
    def test_theorem_3_shortest_first(self, batch_model):
        tasks = [Task(cycles=c) for c in (50.0, 10.0, 30.0)]
        sched = schedule_single_core(tasks, batch_model)
        assert [pl.task.cycles for pl in sched] == [10.0, 30.0, 50.0]

    def test_rates_follow_backward_positions(self, batch_model):
        # D: 1.6:[1,2) 2.0:[2,3) 2.4:[3,5) 2.8:[5,10) 3.0:[10,∞)
        tasks = [Task(cycles=float(c)) for c in range(1, 7)]  # n = 6
        sched = schedule_single_core(tasks, batch_model)
        # forward k=1 → backward 6 → 2.8 ; ... ; forward 6 → backward 1 → 1.6
        assert [pl.rate for pl in sched] == [2.8, 2.8, 2.4, 2.4, 2.0, 1.6]

    def test_empty_and_singleton(self, batch_model):
        assert len(schedule_single_core([], batch_model)) == 0
        sched = schedule_single_core([Task(cycles=5.0)], batch_model)
        assert len(sched) == 1
        assert sched.placements[0].rate == 1.6  # backward position 1

    def test_equal_tasks_tie_broken_by_id(self, batch_model):
        tasks = [Task(cycles=5.0) for _ in range(4)]
        sched = schedule_single_core(tasks, batch_model)
        ids = [pl.task.task_id for pl in sched]
        assert ids == sorted(ids)

    def test_reusable_precomputed_ranges(self, batch_model):
        dr = DominatingRanges.from_cost_model(batch_model)
        tasks = [Task(cycles=c) for c in (1.0, 2.0)]
        a = schedule_single_core(tasks, batch_model, ranges=dr)
        b = schedule_single_core(tasks, batch_model)
        assert [pl.rate for pl in a] == [pl.rate for pl in b]

    def test_foreign_ranges_rejected(self, batch_model, online_model):
        dr = DominatingRanges.from_cost_model(online_model)
        with pytest.raises(ValueError, match="different cost model"):
            schedule_single_core([Task(cycles=1.0)], batch_model, ranges=dr)


class TestOptimality:
    """Theorem 3 + Lemma 1: the algorithm's output is a global optimum."""

    @settings(max_examples=40, deadline=None)
    @given(cost_models(min_rates=1, max_rates=3), cycle_lists(1, 5))
    def test_matches_exhaustive_search(self, model, cycles):
        tasks = [Task(cycles=c) for c in cycles]
        ours = model.core_cost(schedule_single_core(tasks, model)).total_cost
        _, best = brute_force_single_core(tasks, model, max_tasks=5)
        assert ours == pytest.approx(best, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(cost_models(min_rates=1, max_rates=5), cycle_lists(1, 12), st.integers(0, 1000))
    def test_beats_random_schedules(self, model, cycles, seed):
        import random

        rng = random.Random(seed)
        tasks = [Task(cycles=c) for c in cycles]
        ours = model.core_cost(schedule_single_core(tasks, model)).total_cost
        perm = list(tasks)
        rng.shuffle(perm)
        rand = CoreSchedule(
            Placement(task=t, rate=rng.choice(model.table.rates)) for t in perm
        )
        assert ours <= model.core_cost(rand).total_cost + 1e-9 * abs(ours)

    @settings(max_examples=60, deadline=None)
    @given(cost_models(min_rates=1, max_rates=5), cycle_lists(0, 20))
    def test_lower_bound_equals_achieved_cost(self, model, cycles):
        tasks = [Task(cycles=c) for c in cycles]
        bound = schedule_cost_lower_bound(tasks, model)
        achieved = model.core_cost(schedule_single_core(tasks, model)).total_cost
        assert achieved == pytest.approx(bound, rel=1e-9, abs=1e-9)


class TestBruteForce:
    def test_guard_rail(self, batch_model):
        tasks = [Task(cycles=1.0) for _ in range(8)]
        with pytest.raises(ValueError, match="limited"):
            brute_force_single_core(tasks, batch_model, max_tasks=7)

    def test_exhaustiveness_on_two_tasks(self):
        table = RateTable([1.0, 2.0], [1.0, 3.0])
        model = CostModel(table, re=1.0, rt=1.0)
        tasks = [Task(cycles=2.0), Task(cycles=1.0)]
        sched, cost = brute_force_single_core(tasks, model)
        # verify against a full manual enumeration
        best = min(
            model.core_cost(
                CoreSchedule(Placement(t, p) for t, p in zip(perm, rates))
            ).total_cost
            for perm in itertools.permutations(tasks)
            for rates in itertools.product(table.rates, repeat=2)
        )
        assert cost == pytest.approx(best)


def test_paper_example_longest_task_last(batch_model):
    """The Algorithm 2 name in action: heaviest SPEC task executes last, slowest."""
    from repro.workloads.spec import spec_tasks

    tasks = list(spec_tasks())
    sched = schedule_single_core(tasks, batch_model)
    cycles = [pl.task.cycles for pl in sched]
    assert cycles == sorted(cycles)
    assert sched.placements[-1].rate == TABLE_II.min_rate
    assert sched.placements[0].rate == TABLE_II.max_rate  # 24 tasks: backward 24 ≥ 10
