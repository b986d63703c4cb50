"""Tests: vectorised evaluators agree with the scalar reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strategies import cost_models, cycle_lists
from repro.core.batch_single import schedule_cost_lower_bound, schedule_single_core
from repro.core.dominating import DominatingRanges
from repro.models.task import Task
from repro.models.vectorized import positional_cost_prefix, wbg_optimal_cost


def optimal_cost_one_core(model, cycles, ranges=None):
    """The single-core optimal cost: the one-core case of ``wbg_optimal_cost``."""
    if ranges is None:
        ranges = DominatingRanges.from_cost_model(model)
    return wbg_optimal_cost([ranges], cycles)


class TestOptimalCostVectorized:
    @settings(max_examples=50, deadline=None)
    @given(cost_models(min_rates=1, max_rates=6), cycle_lists(0, 25))
    def test_matches_lower_bound(self, model, cycles):
        tasks = [Task(cycles=c) for c in cycles]
        scalar = schedule_cost_lower_bound(tasks, model)
        vector = optimal_cost_one_core(model, cycles)
        assert vector == pytest.approx(scalar, rel=1e-9, abs=1e-9)

    def test_matches_algorithm_2(self, batch_model):
        cycles = [float(c * 7 % 97 + 1) for c in range(200)]
        tasks = [Task(cycles=c) for c in cycles]
        sched = schedule_single_core(tasks, batch_model)
        achieved = batch_model.core_cost(sched).total_cost
        assert optimal_cost_one_core(batch_model, cycles) == pytest.approx(
            achieved, rel=1e-9
        )

    def test_rejects_nonpositive(self, batch_model):
        with pytest.raises(ValueError):
            optimal_cost_one_core(batch_model, [1.0, 0.0])

    def test_accepts_numpy_input(self, batch_model):
        arr = np.array([5.0, 2.0, 9.0])
        tasks = [Task(cycles=float(c)) for c in arr]
        assert optimal_cost_one_core(batch_model, arr) == pytest.approx(
            schedule_cost_lower_bound(tasks, batch_model)
        )

    def test_reusable_ranges(self, batch_model):
        dr = DominatingRanges.from_cost_model(batch_model)
        a = optimal_cost_one_core(batch_model, [3.0, 1.0], ranges=dr)
        b = optimal_cost_one_core(batch_model, [3.0, 1.0])
        assert a == pytest.approx(b)


class TestPositionalTable:
    @settings(max_examples=40, deadline=None)
    @given(cost_models(min_rates=1, max_rates=6), st.integers(1, 300))
    def test_matches_best_backward_cost(self, model, n):
        ranges = DominatingRanges.from_cost_model(model)
        table = positional_cost_prefix(ranges, n)
        assert table.shape == (n,)
        for kb in {1, n, max(1, n // 2)}:
            assert table[kb - 1] == pytest.approx(
                model.best_backward_cost(kb), rel=1e-9
            )

    def test_monotone_increasing(self, batch_model):
        ranges = DominatingRanges.from_cost_model(batch_model)
        table = positional_cost_prefix(ranges, 100)
        assert np.all(np.diff(table) > 0)

    def test_validation(self, batch_model):
        ranges = DominatingRanges.from_cost_model(batch_model)
        with pytest.raises(ValueError):
            positional_cost_prefix(ranges, 0)
