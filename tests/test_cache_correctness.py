"""Cache-correctness tests for the perf kernel layer.

The perf layer (docs/PERFORMANCE.md) adds two memos — the process-wide
Algorithm 1 LRU and the per-ranges vectorized positional prefixes — plus
vectorized kernels that replace scalar loops and a closed-form marginal
probe. None of them may change any observable result:

* churn through ``DynamicCostIndex`` interleaved with probes must
  match a fresh solver built from the surviving values, and a probe
  must leave the index untouched;
* the LRU must hit on equal keys, miss on different ones, and evict
  beyond capacity without ever returning a wrong table;
* every vectorized kernel must reproduce its scalar counterpart
  bit-for-bit where it feeds decisions.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.batch_multi import WorkloadBasedGreedy
from repro.core.dominating import (
    DominatingRanges,
    dominating_cache_stats,
    invalidate_dominating_cache,
)
from repro.core.dynamic import DynamicCostIndex
from repro.core.online_lmc import LeastMarginalCostPolicy
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II, RateTable
from repro.models.task import Task
from repro.models.tolerances import AGG_ABS_TOL, REL_TOL
from repro.models.vectorized import (
    interactive_marginal_batch,
    positional_cost_prefix,
    positional_rate_prefix,
    wbg_slot_sequence,
)


def _model(re: float = 0.1, rt: float = 0.4) -> CostModel:
    return CostModel(TABLE_II, re, rt)


def _agg_close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= max(AGG_ABS_TOL, REL_TOL * max(abs(a), abs(b), scale))


# ---------------------------------------------------------------------------
# probed churn vs fresh solver
# ---------------------------------------------------------------------------


def test_dynamic_churn_with_probes_matches_fresh_solver() -> None:
    rng = random.Random(314)
    probed = DynamicCostIndex(_model(), seed=5)
    live: list = []
    probe_menu = (0.5, 2.0, 7.5)

    for step in range(400):
        if rng.random() < 0.6 or not live:
            value = rng.uniform(0.1, 40.0)
            live.append((probed.insert(value), value))
        else:
            node, _ = live.pop(rng.randrange(len(live)))
            probed.delete(node)
        for cycles in probe_menu:
            probed.marginal_insert_cost(cycles)

        if step % 50 == 0 or step == 399:
            fresh = DynamicCostIndex(_model(), seed=5)
            for _, value in live:
                fresh.insert(value)
            assert len(probed) == len(fresh)
            # identical plan: same sorted values, same per-position rates
            assert probed.tree.values() == fresh.tree.values()
            n = len(fresh)
            for k in (1, max(1, n // 2), n) if n else ():
                assert probed.rate_of(probed.tree.select(k)) == fresh.rate_of(
                    fresh.tree.select(k)
                )
            assert _agg_close(
                probed.total_cost, fresh.total_cost, probed.total_cost
            )
            for cycles in probe_menu:
                assert _agg_close(
                    probed.marginal_insert_cost(cycles),
                    fresh.marginal_insert_cost(cycles),
                    probed.total_cost,
                )


def test_probe_does_not_mutate_or_invalidate() -> None:
    index = DynamicCostIndex(_model())
    nodes = [index.insert(v) for v in (5.0, 1.5, 9.0)]
    total = index.total_cost
    index.marginal_insert_cost(2.0)
    assert index.total_cost == total
    assert len(index) == 3
    assert index.counters["inserts"] == 3  # probes not counted as mutations
    assert index.counters["deletes"] == 0
    index.delete(nodes[0])
    assert index.counters["deletes"] == 1


# ---------------------------------------------------------------------------
# the Algorithm 1 LRU
# ---------------------------------------------------------------------------


def test_ranges_cache_hits_on_equal_key_misses_on_distinct() -> None:
    invalidate_dominating_cache()
    base = dominating_cache_stats()
    a = DominatingRanges.cached(_model(0.3, 0.7))
    b = DominatingRanges.cached(_model(0.3, 0.7))  # distinct CostModel, same key
    c = DominatingRanges.cached(_model(0.3, 0.8))
    stats = dominating_cache_stats()
    assert a is b
    assert c is not a
    assert stats["hits"] - base["hits"] == 1
    assert stats["misses"] - base["misses"] == 2


def test_ranges_cache_invalidate_single_entry() -> None:
    invalidate_dominating_cache()
    model = _model(0.2, 0.9)
    first = DominatingRanges.cached(model)
    assert invalidate_dominating_cache(model) == 1
    assert invalidate_dominating_cache(model) == 0  # already gone
    second = DominatingRanges.cached(model)
    assert second is not first
    assert [(r.rate, r.lo, r.hi) for r in second] == [
        (r.rate, r.lo, r.hi) for r in first
    ]


def test_ranges_cache_eviction_never_corrupts_results() -> None:
    """Push far past capacity; every lookup must still be correct."""
    invalidate_dominating_cache()
    capacity = dominating_cache_stats()["capacity"]
    pricings = [(0.01 * (i + 1), 0.4) for i in range(capacity + 40)]
    for re, rt in pricings:
        model = _model(re, rt)
        cached = DominatingRanges.cached(model)
        fresh = DominatingRanges.from_cost_model(model)
        assert [(r.rate, r.lo, r.hi) for r in cached] == [
            (r.rate, r.lo, r.hi) for r in fresh
        ]
    stats = dominating_cache_stats()
    assert stats["entries"] <= capacity
    assert stats["evictions"] >= 40


# ---------------------------------------------------------------------------
# vectorized kernels vs scalar counterparts (bit-identity)
# ---------------------------------------------------------------------------


def test_positional_prefix_bit_identical_to_scalar_costs() -> None:
    ranges = DominatingRanges.cached(_model())
    costs = positional_cost_prefix(ranges, 300)
    rates = positional_rate_prefix(ranges, 300)
    for k in range(1, 301):
        assert costs[k - 1] == ranges.cost(k)
        assert rates[k - 1] == ranges.rate_for(k)
    with pytest.raises(ValueError):
        costs[0] = 0.0  # memoized prefixes are read-only views


def test_positional_prefix_grows_monotonically() -> None:
    ranges = DominatingRanges.cached(_model(0.15, 0.35))
    short = positional_cost_prefix(ranges, 4)
    longer = positional_cost_prefix(ranges, 64)
    assert list(longer[:4]) == list(short)
    assert positional_cost_prefix(ranges, 64).base is positional_cost_prefix(ranges, 8).base


def test_wbg_slot_sequence_matches_scalar_heap() -> None:
    rng = random.Random(2718)
    tables = [
        RateTable(
            TABLE_II.rates,
            tuple(e * f for e in TABLE_II.energy_per_cycle),
            TABLE_II.time_per_cycle,
        )
        for f in (1.0, 1.2, 1.45)
    ]
    models = [CostModel(t, 0.1, 0.4) for t in tables]
    tasks = [Task(cycles=rng.uniform(0.1, 20.0)) for _ in range(200)]
    wbg = WorkloadBasedGreedy(models)
    scalar = wbg.schedule(tasks, kernel="scalar")
    vector = wbg.schedule(tasks, kernel="vector")
    assert [
        [(p.task.task_id, p.rate) for p in s.placements] for s in scalar
    ] == [[(p.task.task_id, p.rate) for p in s.placements] for s in vector]


def test_wbg_kernel_argument_validated() -> None:
    wbg = WorkloadBasedGreedy([_model()])
    with pytest.raises(ValueError):
        wbg.schedule([Task(cycles=1.0)], kernel="bogus")


def test_interactive_marginal_batch_bit_identical_to_scalar() -> None:
    rng = random.Random(161803)
    for _ in range(50):
        re, rt = rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0)
        factors = [rng.uniform(1.0, 1.6) for _ in range(4)]
        models = [
            CostModel(
                RateTable(
                    TABLE_II.rates,
                    tuple(e * f for e in TABLE_II.energy_per_cycle),
                    TABLE_II.time_per_cycle,
                ),
                re,
                rt,
            )
            for f in factors
        ]
        cycles = rng.uniform(0.01, 50.0)
        counts = [rng.randint(0, 9) for _ in models]
        pm_energy = np.array(
            [m.table.energy(m.table.max_rate) for m in models], dtype=np.float64
        )
        pm_time = np.array(
            [m.table.time(m.table.max_rate) for m in models], dtype=np.float64
        )
        batch = interactive_marginal_batch(
            re, rt, cycles, pm_energy, pm_time, np.asarray(counts, dtype=np.float64)
        )
        scalar = [m.interactive_marginal_cost(cycles, n) for m, n in zip(models, counts)]
        assert batch.tolist() == scalar
        assert int(batch.argmin()) == min(
            range(len(models)), key=scalar.__getitem__
        )
        # the policy's scalar loop picks the kernel's first minimum
        policy = LeastMarginalCostPolicy(models)
        assert policy.choose_core_interactive(cycles, counts) == int(batch.argmin())
