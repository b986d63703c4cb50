"""Ablation — Workload Based Greedy scaling (Algorithm 3 is O(n log n)).

Benchmarks plan generation at increasing batch sizes on homogeneous and
heterogeneous four-core platforms, plus the heap-free fast path that
computes only the optimal cost.
"""

import pytest

from harness import RE_BATCH, RT_BATCH
from repro.core.batch_multi import WorkloadBasedGreedy
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II, rate_table_from_power_law
from repro.workloads.synthetic import lognormal_batch


@pytest.mark.parametrize("n", [100, 1000, 10_000])
def test_wbg_homogeneous_scaling(benchmark, n):
    tasks = list(lognormal_batch(n, median=20.0, seed=1))
    model = CostModel(TABLE_II, RE_BATCH, RT_BATCH)
    wbg = WorkloadBasedGreedy([model] * 4)
    schedules = benchmark(wbg.schedule, tasks)
    assert sum(len(s) for s in schedules) == n


@pytest.mark.parametrize("n", [100, 1000, 10_000])
def test_wbg_heterogeneous_scaling(benchmark, n):
    tasks = list(lognormal_batch(n, median=20.0, seed=2))
    little = rate_table_from_power_law(
        [0.6, 0.9, 1.2, 1.5], dynamic_coefficient=0.35, name="little"
    )
    models = [
        CostModel(TABLE_II, RE_BATCH, RT_BATCH),
        CostModel(TABLE_II, RE_BATCH, RT_BATCH),
        CostModel(little, RE_BATCH, RT_BATCH),
        CostModel(little, RE_BATCH, RT_BATCH),
    ]
    wbg = WorkloadBasedGreedy(models)
    schedules = benchmark(wbg.schedule, tasks)
    assert sum(len(s) for s in schedules) == n


@pytest.mark.parametrize("n", [1000, 10_000])
def test_wbg_cost_only_fast_path(benchmark, n):
    tasks = list(lognormal_batch(n, median=20.0, seed=3))
    model = CostModel(TABLE_II, RE_BATCH, RT_BATCH)
    wbg = WorkloadBasedGreedy([model] * 4)
    fast = benchmark(wbg.optimal_cost, tasks)
    # must equal the materialised schedule's cost
    full = wbg.schedule_cost(wbg.schedule(tasks)).total_cost
    assert fast == pytest.approx(full, rel=1e-9)
