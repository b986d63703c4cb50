"""Ablation — scalar reference vs NumPy-vectorised optimal-cost evaluation.

Per the optimisation workflow this repo follows (make it work, make it
right, then vectorise the measured bottleneck): the optimal cost
``Σ C*·L`` of a batch is evaluated in every pricing sweep, so it ships
in two forms — the readable Python reference (Algorithm 2's lower
bound) and the NumPy kernel. This bench measures both at sweep-relevant
sizes; the property tests pin their agreement to 1e-9.
"""

import random

import pytest

from harness import RE_BATCH, RT_BATCH
from repro.core.batch_single import schedule_cost_lower_bound
from repro.core.dominating import DominatingRanges
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II
from repro.models.task import Task
from repro.models.vectorized import wbg_optimal_cost


@pytest.mark.parametrize("n", [1000, 100_000])
def test_scalar_optimal_cost(benchmark, n):
    model = CostModel(TABLE_II, RE_BATCH, RT_BATCH)
    rng = random.Random(1)
    tasks = [Task(cycles=rng.uniform(0.1, 500.0)) for _ in range(n)]
    dr = DominatingRanges.from_cost_model(model)
    cost = benchmark(schedule_cost_lower_bound, tasks, model, dr)
    assert cost > 0


@pytest.mark.parametrize("n", [1000, 100_000])
def test_vectorized_optimal_cost(benchmark, n):
    model = CostModel(TABLE_II, RE_BATCH, RT_BATCH)
    rng = random.Random(1)
    cycles = [rng.uniform(0.1, 500.0) for _ in range(n)]
    dr = DominatingRanges.from_cost_model(model)
    cost = benchmark(wbg_optimal_cost, [dr], cycles)
    tasks = [Task(cycles=c) for c in cycles]
    assert cost == pytest.approx(schedule_cost_lower_bound(tasks, model, dr), rel=1e-9)
