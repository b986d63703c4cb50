"""Runtime guards that must survive ``python -O``.

Each check here used to be an ``assert`` (stripped by ``-O``) and is now
a named exception or code that needs no narrowing. CI runs this file
under ``python -O`` as well as normally.
"""

import math

import pytest

import repro.core.budget as budget
from repro.core.batch_multi import WorkloadBasedGreedy
from repro.core.batch_single import brute_force_single_core
from repro.core.dynamic import DynamicCostIndex
from repro.core.weighted import WeightedTask
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II
from repro.models.task import Task
from repro.obs.metrics import MetricsRegistry
from repro.schedulers.yds import yds_schedule
from repro.structures import RangeTree


class TestCostModel:
    def test_nan_backward_position_rejected(self):
        model = CostModel(TABLE_II, 0.4, 0.1)
        with pytest.raises(ValueError, match="backward position"):
            model.backward_position_cost(math.nan, TABLE_II.rates[0])
        with pytest.raises(ValueError, match="backward position"):
            model.best_rate_backward(math.nan)


class TestBruteForceSingleCore:
    def test_overflowing_costs_raise(self):
        model = CostModel(TABLE_II, 1e300, 1e300)
        with pytest.raises(ValueError, match="finite cost"):
            brute_force_single_core([Task(cycles=1e10)], model)


class TestWeighted:
    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="weight must be positive"):
            WeightedTask(Task(cycles=1.0), weight=math.nan)


class TestYDS:
    def test_collapsed_window_raises(self):
        # Collapsing the first two critical intervals rounds task 0's
        # window down to zero length, so no interval can hold it.
        tasks = [
            Task(cycles=1.0, arrival=1.1, deadline=1.1000000000000003, task_id=0),
            Task(cycles=1.0, arrival=0.5820752265448588, deadline=0.5820752265448589, task_id=1),
            Task(cycles=1.0, arrival=0.7, deadline=0.8999999999999999, task_id=2),
        ]
        with pytest.raises(ValueError, match="no critical interval found"):
            yds_schedule(tasks)


class TestDynamicIndexBoundaries:
    """A non-empty dominating range without a boundary node is a corrupted index."""

    @pytest.fixture
    def index(self):
        q = DynamicCostIndex(CostModel(TABLE_II, 0.4, 0.1))
        first = q.ranges.ranges[0]
        for c in range(1, first.hi + 3):  # fill range 0 and spill into range 1
            q.insert(float(c))
        assert q._b[0] == first.hi - 1 and q._b[1] >= q._a[1]
        return q

    def test_probe(self, index):
        index._beta[0] = None
        with pytest.raises(RuntimeError, match="range 0 is non-empty"):
            index.marginal_insert_cost(1e6)

    def test_insert_cascade(self, index):
        index._beta[0] = None
        with pytest.raises(RuntimeError, match="range 0 is non-empty"):
            index.insert(1e6)

    def test_delete_cascade(self, index):
        index._alpha[1] = None
        with pytest.raises(RuntimeError, match="range 1 is non-empty"):
            index.delete(index.tree.min_node())


class TestRangeTreeValues:
    """NaN has no place in the descending order, and ±inf breaks ``range_delta``."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        tree = RangeTree()
        for v in (3.0, 1.0):
            tree.insert(v)
        for op in (tree.insert, tree.insert_ranked):
            with pytest.raises(ValueError, match=f"finite, got {value!r}"):
                op(value)
        tree.insert(2.0)
        assert tree.values() == [3.0, 2.0, 1.0]
        assert tree.count_ge(2.0) == 2
        tree.check_invariants()


class TestWorkloadBasedGreedy:
    def test_schedule_cost_of_no_schedules_raises(self):
        with pytest.raises(ValueError, match="at least one core schedule"):
            WorkloadBasedGreedy([CostModel(TABLE_II, 0.1, 0.4)]).schedule_cost([])


class TestEnergyBudget:
    def test_no_feasible_multiplier_raises(self, monkeypatch):
        # A solver that never fits the budget, although the min-rate
        # schedule does, breaks the search's premise.
        def never_fits(tasks, table, lam):
            return budget.BudgetSchedule(schedule=None, flow_time=0.0,
                                         energy=math.inf, multiplier=lam)

        monkeypatch.setattr(budget, "_solve_at", never_fits)
        tasks = [Task(cycles=1.0)]
        with pytest.raises(RuntimeError, match="no multiplier"):
            budget.schedule_with_energy_budget(tasks, TABLE_II, budget.min_energy(tasks, TABLE_II))


class TestMetricsRegistry:
    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        for make in (reg.gauge, lambda name: reg.histogram(name, [1.0])):
            with pytest.raises(ValueError, match="already registered as a counter"):
                make("x")
