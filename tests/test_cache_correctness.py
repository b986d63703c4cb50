"""Cache-correctness tests for the perf kernel layer.

The perf layer (docs/PERFORMANCE.md) adds one memo — the per-ranges
vectorized positional prefixes — plus vectorized kernels that replace scalar loops and a closed-form marginal
probe. None of them may change any observable result:

* churn through ``DynamicCostIndex`` interleaved with probes must
  match a fresh solver built from the surviving values, and a probe
  must leave the index untouched;
* every vectorized kernel must reproduce its scalar counterpart
  bit-for-bit where it feeds decisions.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.batch_multi import WorkloadBasedGreedy
from repro.core.dominating import DominatingRanges
from repro.core.dynamic import DynamicCostIndex
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II, RateTable
from repro.models.task import Task, TaskKind
from repro.models.tolerances import AGG_ABS_TOL, REL_TOL
from repro.obs.tracer import RecordingTracer
from repro.schedulers.lmc import LMCOnlineScheduler
from repro.schedulers.wbg import wbg_plan
from repro.verify.reference import wbg_heap_plan
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
# vectorized kernels vs scalar counterparts (bit-identity)
# ---------------------------------------------------------------------------


def test_positional_prefix_bit_identical_to_scalar_costs() -> None:
    ranges = DominatingRanges.from_cost_model(_model())
    costs = positional_cost_prefix(ranges, 300)
    rates = positional_rate_prefix(ranges, 300)
    for k in range(1, 301):
        assert costs[k - 1] == ranges.cost(k)
        assert rates[k - 1] == ranges.rate_for(k)
    with pytest.raises(ValueError):
        costs[0] = 0.0  # memoized prefixes are read-only views


def test_positional_prefix_grows_monotonically() -> None:
    ranges = DominatingRanges.from_cost_model(_model(0.15, 0.35))
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
    heap = wbg_heap_plan(models, tasks)
    merge = WorkloadBasedGreedy(models).schedule(tasks)
    assert [
        [(p.task.task_id, p.rate) for p in s.placements] for s in heap
    ] == [[(p.task.task_id, p.rate) for p in s.placements] for s in merge]


def test_wbg_kernel_argument_validated() -> None:
    # "auto" plans with WorkloadBasedGreedy, "scalar" with the heap
    # oracle; "vector" is no longer a kernel name
    for kernel in ("bogus", "vector"):
        with pytest.raises(ValueError, match="unknown kernel"):
            wbg_plan([Task(cycles=1.0)], TABLE_II, 1, 0.1, 0.4, kernel=kernel)
    with pytest.raises(ValueError, match="untraced"):
        wbg_plan([Task(cycles=1.0)], TABLE_II, 1, 0.1, 0.4, kernel="scalar",
                 tracer=RecordingTracer())


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
        # LMC's one-pass Eq. 27 choice picks the kernel's first minimum
        sched = LMCOnlineScheduler([m.table for m in models], len(models), re, rt)
        for j, n in enumerate(counts):
            for _ in range(n):
                sched.policy.enqueue(j, 1.0)
        idle = [SimpleNamespace(running_kind=None) for _ in models]
        task = Task(cycles=cycles, kind=TaskKind.INTERACTIVE)
        assert sched.select_core(task, idle) == int(batch.argmin())
