"""Ablation — Algorithms 4-6 vs naive recomputation.

Section IV-A's motivation: with the range tree + boundary pointers,
insert/delete cost ``O(|P̂| + log N)`` and the total cost is a ``Θ(1)``
read, versus ``Θ(N)`` recomputation per operation for a plain sorted
list. This bench measures a full insert/delete churn at several queue
depths for both implementations.
"""

import random

import pytest

from harness import RE_ONLINE, RT_ONLINE, emit
from repro.core.dynamic import DynamicCostIndex, NaiveCostIndex
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II

CHURN_OPS = 200


def _churn(index_factory, n_prefill: int, seed: int = 42) -> float:
    """Prefill to depth n, then do CHURN_OPS alternating insert/delete,
    reading the total cost after every operation."""
    rng = random.Random(seed)
    idx = index_factory()
    handles = [idx.insert(rng.uniform(0.1, 500.0)) for _ in range(n_prefill)]
    total = 0.0
    for _ in range(CHURN_OPS // 2):
        handles.append(idx.insert(rng.uniform(0.1, 500.0)))
        total += idx.total_cost
        victim = handles.pop(rng.randrange(len(handles)))
        idx.delete(victim)
        total += idx.total_cost
    return total


@pytest.mark.parametrize("depth", [100, 1000, 5000])
def test_dynamic_index_churn(benchmark, depth):
    model = CostModel(TABLE_II, RE_ONLINE, RT_ONLINE)
    total = benchmark(_churn, lambda: DynamicCostIndex(model), depth)
    assert total > 0


@pytest.mark.parametrize("depth", [100, 1000, 5000])
def test_naive_index_churn(benchmark, depth):
    model = CostModel(TABLE_II, RE_ONLINE, RT_ONLINE)

    class NaiveAdapter(NaiveCostIndex):
        # NaiveCostIndex deletes by value; adapt to the handle protocol
        def insert(self, cycles, payload=None):
            super().insert(cycles)
            return cycles

    total = benchmark(_churn, lambda: NaiveAdapter(model), depth)
    assert total > 0


def test_agreement_at_depth(benchmark):
    """Same churn, both structures, identical cost trajectories."""
    model = CostModel(TABLE_II, RE_ONLINE, RT_ONLINE)

    def run():
        rng = random.Random(7)
        fast = DynamicCostIndex(model)
        slow = NaiveCostIndex(model)
        handles = []
        for _ in range(300):
            if handles and rng.random() < 0.45:
                node, v = handles.pop(rng.randrange(len(handles)))
                fast.delete(node)
                slow.delete(v)
            else:
                v = rng.uniform(0.1, 500.0)
                handles.append((fast.insert(v), v))
                slow.insert(v)
            assert fast.total_cost == pytest.approx(slow.total_cost, rel=1e-9)
        return fast.total_cost

    cost = benchmark(run)
    assert cost >= 0
    emit(
        "Algorithms 4-6 vs naive: identical costs at every step; see the "
        "churn benchmarks above for the O(|P̂|+log N) vs Θ(N) scaling split."
    )
