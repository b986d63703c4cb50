"""Tests for Theorem 4 (round robin) and Algorithm 3 (Workload Based Greedy)."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from strategies import cost_models, cycle_lists
from repro.core.batch_multi import (
    WorkloadBasedGreedy,
    brute_force_multi_core,
    schedule_homogeneous_round_robin,
    schedule_multi_core,
)
import repro.models.vectorized as vectorized
from repro.models.cost import CostModel
from repro.models.rates import RateTable, TABLE_II, rate_table_from_power_law
from repro.models.task import Task
from repro.obs.tracer import RecordingTracer
from repro.schedulers.wbg import wbg_plan
from repro.verify.reference import wbg_heap_plan
from repro.workloads.spec import spec_tasks


def total_cost(models, schedules):
    return sum(
        models[s.core_index].core_cost(s).total_cost for s in schedules
    )


class TestConstruction:
    def test_requires_cores(self):
        with pytest.raises(ValueError):
            WorkloadBasedGreedy([])

    def test_requires_shared_pricing(self, batch_model, table_ii):
        other = CostModel(table_ii, re=0.2, rt=0.4)
        with pytest.raises(ValueError, match="same Re and Rt"):
            WorkloadBasedGreedy([batch_model, other])

    def test_n_cores(self, batch_model):
        wbg = WorkloadBasedGreedy([batch_model] * 3)
        assert wbg.n_cores == 3


class TestHomogeneous:
    def test_all_tasks_scheduled_once(self, batch_model):
        tasks = [Task(cycles=float(c)) for c in range(1, 11)]
        schedules = WorkloadBasedGreedy([batch_model] * 4).schedule(tasks)
        placed = [pl.task.task_id for s in schedules for pl in s]
        assert sorted(placed) == sorted(t.task_id for t in tasks)

    def test_each_core_sorted_shortest_first(self, batch_model):
        tasks = [Task(cycles=float(c)) for c in (9, 3, 7, 1, 5, 8, 2, 6)]
        for s in WorkloadBasedGreedy([batch_model] * 3).schedule(tasks):
            cycles = [pl.task.cycles for pl in s]
            assert cycles == sorted(cycles)

    def test_theorem_4_round_robin_equals_wbg_cost(self, batch_model):
        tasks = [Task(cycles=float(c * c)) for c in range(1, 14)]
        wbg = WorkloadBasedGreedy([batch_model] * 4)
        cost_wbg = total_cost([batch_model] * 4, wbg.schedule(tasks))
        rr = schedule_homogeneous_round_robin(tasks, batch_model, 4)
        cost_rr = total_cost([batch_model] * 4, rr)
        assert cost_wbg == pytest.approx(cost_rr, rel=1e-9)

    def test_round_robin_heaviest_take_slot_one(self, batch_model):
        tasks = [Task(cycles=float(c)) for c in (100, 90, 80, 70, 1, 2, 3, 4)]
        rr = schedule_homogeneous_round_robin(tasks, batch_model, 4)
        # the four heaviest are each the LAST task on their core
        last_cycles = sorted(s.placements[-1].task.cycles for s in rr)
        assert last_cycles == [70.0, 80.0, 90.0, 100.0]

    def test_single_core_degenerates_to_algorithm_2(self, batch_model):
        from repro.core.batch_single import schedule_single_core

        tasks = [Task(cycles=float(c)) for c in (4, 8, 15, 16, 23, 42)]
        multi = WorkloadBasedGreedy([batch_model]).schedule(tasks)
        single = schedule_single_core(tasks, batch_model)
        assert [pl.rate for pl in multi[0]] == [pl.rate for pl in single]
        assert [pl.task.cycles for pl in multi[0]] == [pl.task.cycles for pl in single]

    @settings(max_examples=40, deadline=None)
    @given(cost_models(min_rates=1, max_rates=5), cycle_lists(0, 20), st.integers(1, 5))
    def test_round_robin_matches_wbg_property(self, model, cycles, n_cores):
        tasks = [Task(cycles=c) for c in cycles]
        wbg = WorkloadBasedGreedy([model] * n_cores)
        a = total_cost([model] * n_cores, wbg.schedule(tasks))
        b = total_cost(
            [model] * n_cores, schedule_homogeneous_round_robin(tasks, model, n_cores)
        )
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


class TestHeterogeneous:
    @pytest.fixture
    def het_models(self):
        fast_hot = TABLE_II
        slow_cool = rate_table_from_power_law(
            [0.8, 1.2, 1.7], dynamic_coefficient=0.4, name="little"
        )
        return [CostModel(fast_hot, 0.1, 0.4), CostModel(slow_cool, 0.1, 0.4)]

    def test_all_tasks_placed(self, het_models):
        tasks = [Task(cycles=float(c)) for c in range(1, 9)]
        schedules = WorkloadBasedGreedy(het_models).schedule(tasks)
        assert sum(len(s) for s in schedules) == 8

    def test_rates_come_from_own_core_table(self, het_models):
        tasks = [Task(cycles=float(c)) for c in range(1, 9)]
        schedules = WorkloadBasedGreedy(het_models).schedule(tasks)
        for s in schedules:
            table = het_models[s.core_index].table
            for pl in s:
                assert pl.rate in table

    def test_theorem_5_matches_brute_force(self, het_models):
        tasks = [Task(cycles=float(c)) for c in (3, 11, 7, 19, 2)]
        wbg = WorkloadBasedGreedy(het_models)
        ours = total_cost(het_models, wbg.schedule(tasks))
        best = brute_force_multi_core(tasks, het_models, max_tasks=5)
        assert ours == pytest.approx(best, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(cycle_lists(1, 5), st.integers(0, 10**6))
    def test_theorem_5_property(self, cycles, seed):
        import random

        rng = random.Random(seed)
        models = []
        for _ in range(rng.randint(1, 3)):
            n_rates = rng.randint(1, 3)
            rates = sorted(rng.uniform(0.5, 4.0) for _ in range(n_rates))
            # force strictly increasing with margin
            rates = [r + 0.01 * i for i, r in enumerate(rates)]
            energies = []
            acc = rng.uniform(0.1, 2.0)
            for _ in range(n_rates):
                energies.append(acc)
                acc += rng.uniform(0.05, 2.0)
            models.append(CostModel(RateTable(rates, energies), 0.3, 0.7))
        tasks = [Task(cycles=c) for c in cycles]
        ours = total_cost(models, WorkloadBasedGreedy(models).schedule(tasks))
        best = brute_force_multi_core(tasks, models, max_tasks=5)
        assert ours <= best + 1e-9 * max(1.0, abs(best))


class TestOptimalCostFastPath:
    @settings(max_examples=40, deadline=None)
    @given(cost_models(min_rates=1, max_rates=5), cycle_lists(0, 15), st.integers(1, 4))
    def test_optimal_cost_equals_evaluated_schedule(self, model, cycles, n_cores):
        tasks = [Task(cycles=c) for c in cycles]
        wbg = WorkloadBasedGreedy([model] * n_cores)
        fast = wbg.optimal_cost(tasks)
        full = total_cost([model] * n_cores, wbg.schedule(tasks))
        assert fast == pytest.approx(full, rel=1e-9, abs=1e-9)


def test_schedule_multi_core_convenience(batch_model):
    tasks = [Task(cycles=float(c)) for c in (5, 1, 3)]
    schedules = schedule_multi_core(tasks, [batch_model] * 2)
    assert len(schedules) == 2
    assert sum(len(s) for s in schedules) == 3


def test_brute_force_guard(batch_model):
    tasks = [Task(cycles=1.0) for _ in range(7)]
    with pytest.raises(ValueError, match="limited"):
        brute_force_multi_core(tasks, [batch_model], max_tasks=6)


def test_schedule_cost_rejects_empty_schedule_list(batch_model):
    with pytest.raises(ValueError, match="at least one core schedule"):
        WorkloadBasedGreedy([batch_model]).schedule_cost([])


class TestSingleKernel:
    """Algorithm 3 has one production path: the merge in models/vectorized.py."""

    @staticmethod
    def _energy_scaled_tables():
        return [
            RateTable(TABLE_II.rates, tuple(e * f for e in TABLE_II.energy_per_cycle),
                      TABLE_II.time_per_cycle, name=f"core{j}")
            for j, f in enumerate((1.0, 1.08, 1.18, 1.3))
        ]

    @staticmethod
    def _traced_digest(models, tasks):
        tracer = RecordingTracer()
        plan = WorkloadBasedGreedy(models, tracer=tracer).schedule(tasks)
        digest = hashlib.sha256()
        for event in tracer.events:
            digest.update(json.dumps([event.kind, event.data], sort_keys=True).encode())
        for s in plan:
            digest.update(repr((s.core_index, [(p.task.cycles, p.rate) for p in s.placements]))
                          .encode())
        return digest.hexdigest()[:16]

    # Digests recorded with the heap loop that planned every traced batch
    # before the merge became the only path: the event stream (ranges,
    # schedule summary, every slot pick with its candidates) and the plan
    # must stay byte-identical.
    def test_traced_spec_batch_is_byte_identical(self):
        tasks = [Task(cycles=t.cycles, name=t.name, task_id=i)
                 for i, t in enumerate(spec_tasks("both"))]
        models = [CostModel(TABLE_II, 0.1, 0.4) for _ in range(4)]
        assert self._traced_digest(models, tasks) == "10fade96a55cdccf"

    def test_traced_heterogeneous_batch_is_byte_identical(self):
        rng = random.Random(123)
        tasks = [Task(cycles=rng.uniform(0.1, 40), name=f"t{i}", task_id=i) for i in range(300)]
        models = [CostModel(t, 0.1, 0.4) for t in self._energy_scaled_tables()]
        assert self._traced_digest(models, tasks) == "6446fa8654159d73"

    @pytest.mark.parametrize("n_tasks", [1, 2, 7, 64])
    @pytest.mark.parametrize("traced", [False, True])
    def test_every_plan_runs_the_merge_once(self, monkeypatch, n_tasks, traced):
        calls = []
        merge = vectorized.wbg_slot_sequence

        def spy(ranges, n):
            calls.append(n)
            return merge(ranges, n)

        monkeypatch.setattr(vectorized, "wbg_slot_sequence", spy)
        tracer = RecordingTracer() if traced else None
        tasks = [Task(cycles=float(i + 1)) for i in range(n_tasks)]
        plan = wbg_plan(tasks, TABLE_II, 3, 0.1, 0.4, tracer=tracer)
        assert calls == [n_tasks]
        assert sum(len(s) for s in plan) == n_tasks

    def test_empty_batch_skips_the_merge(self, monkeypatch):
        monkeypatch.setattr(vectorized, "wbg_slot_sequence", None)
        assert [len(s) for s in wbg_plan([], TABLE_II, 2, 0.1, 0.4)] == [0, 0]

    def test_scalar_kernel_is_the_heap_oracle(self):
        rng = random.Random(7)
        tasks = [Task(cycles=rng.uniform(0.5, 30.0)) for _ in range(40)]
        tables = self._energy_scaled_tables()

        def key(plan):
            return [(s.core_index, [(p.task.task_id, p.rate) for p in s.placements])
                    for s in plan]

        scalar = wbg_plan(tasks, tables, 4, 0.1, 0.4, kernel="scalar")
        models = [CostModel(t, 0.1, 0.4) for t in tables]
        assert key(scalar) == key(wbg_heap_plan(models, tasks))
        assert key(scalar) == key(wbg_plan(tasks, tables, 4, 0.1, 0.4))
