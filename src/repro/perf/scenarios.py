"""The pinned benchmark scenarios behind ``repro bench``.

Each scenario exercises one hot path the perf kernels accelerate and
returns a :class:`~repro.perf.report.ScenarioResult` with

* best-of-``repeats`` wall times per phase, raw and scaled to a fixed
  host speed (the noisy half; :mod:`repro.perf.reference`),
* deterministic ops counters and a checksum over the numeric outputs
  (the machine-independent half that hard-gates in CI).

Workloads are pinned: fixed seeds, fixed sizes (smaller under
``quick``), fixed Table II platform. Every run of the same code on any
machine produces identical ops/checksums; only the wall times vary.

The WBG scenario doubles as a live bit-identity assertion — it raises
if the production merge kernel ever plans differently from the
heap-loop oracle in :mod:`repro.verify.reference`, independent of the
differential fuzzer's ``wbg_kernel`` check.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, TypeVar

from repro.core.batch_multi import WorkloadBasedGreedy
from repro.core.dynamic import DynamicCostIndex
from repro.models.cost import RE_BATCH, RE_ONLINE, RT_BATCH, RT_ONLINE, CostModel
from repro.models.rates import TABLE_II, RateTable
from repro.models.task import Task
from repro.perf.reference import reference_block, scale
from repro.perf.report import ScenarioResult
from repro.verify.reference import wbg_heap_plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer

T = TypeVar("T")


@dataclass(frozen=True)
class Timing:
    """Best-of-repeats host seconds of one phase, and its median over
    the repeats scaled to a fixed host speed."""

    raw: float
    scaled: float


def _timed(fn: Callable[[], T], repeats: int) -> tuple[Timing, T]:
    """Best-of-``repeats`` wall time for ``fn`` (plus its last result).

    One untimed warmup run first, so lazy imports and cache fills are
    paid before the clock starts — the kernels are measured in steady
    state, which is what the regression gate should compare. The cyclic
    garbage collector is paused around the timed region (after one
    explicit collection): a mid-run GC pass is the single biggest source
    of best-of-N jitter at quick-profile workload sizes, and the 25%
    gate should spend its slack on machine noise, not allocator luck.
    Right before each repeat a block of the reference snippet as long as
    the previous run is timed, under the same host load; the scaled time
    is the median over the repeats of each run scaled by its block.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    t0 = time.perf_counter()
    fn()
    last = time.perf_counter() - t0
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        best = float("inf")
        scaled = []
        result: T
        for _ in range(repeats):
            reference = reference_block(last)
            t0 = time.perf_counter()
            result = fn()
            last = time.perf_counter() - t0
            best = min(best, last)
            scaled.append(scale(last, reference))
    finally:
        if was_enabled:
            gc.enable()
    return Timing(best, statistics.median(scaled)), result


def _result(name: str, params: dict, timings: dict[str, Timing], ops: dict[str, int],
            checksum: str) -> ScenarioResult:
    return ScenarioResult(
        name=name,
        params=params,
        wall_time_s={phase: t.raw for phase, t in timings.items()},
        ops=ops,
        checksum=checksum,
        scaled_time_s={phase: t.scaled for phase, t in timings.items()},
    )


def _checksum(*values: object) -> str:
    digest = hashlib.sha256()
    for value in values:
        digest.update(repr(value).encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def _heterogeneous_platform(n_cores: int) -> list[RateTable]:
    """Table II menus with per-core energy scaling (silicon variation)."""
    factors = (1.0, 1.08, 1.18, 1.3)
    if n_cores > len(factors):
        raise ValueError(f"platform supports at most {len(factors)} cores")
    return [
        RateTable(
            TABLE_II.rates,
            tuple(e * f for e in TABLE_II.energy_per_cycle),
            TABLE_II.time_per_cycle,
            name=f"core{j}",
        )
        for j, f in enumerate(factors[:n_cores])
    ]


def wbg_scaling(quick: bool, repeats: int) -> ScenarioResult:
    """Algorithm 3 over a large batch: heap-loop oracle vs merge kernel.

    Times the heap loop (phase ``heap_oracle``) and the production
    :class:`WorkloadBasedGreedy` merge (phase ``merge_kernel``) on the same
    10⁴-task (quick: 2·10³) batch over a 4-core heterogeneous platform,
    asserts the plans are identical, and checksums the plan. The
    recorded times make the merge's speedup auditable from the
    committed baseline.
    """
    n_tasks = 2_000 if quick else 10_000
    n_cores = 4
    models = [CostModel(t, RE_BATCH, RT_BATCH) for t in _heterogeneous_platform(n_cores)]
    rng = random.Random(2014)
    tasks = [
        Task(cycles=rng.uniform(0.05, 30.0), name=f"t{i}") for i in range(n_tasks)
    ]
    scheduler = WorkloadBasedGreedy(models)

    t_oracle, plan_oracle = _timed(lambda: wbg_heap_plan(models, tasks), repeats)
    t_merge, plan_merge = _timed(lambda: scheduler.schedule(tasks), repeats)

    def plan_key(plan):  # (core, [(cycles, rate), ...]) — identity up to task naming
        return [
            (s.core_index, [(p.task.cycles, p.rate) for p in s.placements]) for s in plan
        ]

    if plan_key(plan_oracle) != plan_key(plan_merge):
        raise RuntimeError("WBG merge kernel and heap oracle produced different plans")

    cost = scheduler.schedule_cost(plan_merge)
    return _result(
        "wbg_scaling",
        {"n_tasks": n_tasks, "n_cores": n_cores, "seed": 2014, "re": RE_BATCH, "rt": RT_BATCH},
        {"heap_oracle": t_oracle, "merge_kernel": t_merge},
        {"tasks": n_tasks, "cores": n_cores},
        _checksum(plan_key(plan_merge), cost.total_cost),
    )


def lmc_online_trace(quick: bool, repeats: int) -> ScenarioResult:
    """LMC over a Judgegirl-style trace through the event-driven runner.

    Exercises the batched Equation 27 kernel, the closed-form marginal
    probes, and the simulator itself. Ops counters come from the policy
    (probes, queue mutations) and the runner (events fired,
    preemptions) — all deterministic for the pinned trace.
    """
    from repro.schedulers import LMCOnlineScheduler
    from repro.simulator import run_online
    from repro.workloads import JudgeTraceConfig, generate_judge_trace

    cfg = JudgeTraceConfig(
        n_interactive=600 if quick else 3_000,
        n_noninteractive=80 if quick else 400,
        duration_s=120.0 if quick else 600.0,
        seed=2014,
    )
    trace = generate_judge_trace(cfg)
    n_cores = 4

    def run():
        scheduler = LMCOnlineScheduler(TABLE_II, n_cores, RE_ONLINE, RT_ONLINE)
        result = run_online(trace, scheduler, TABLE_II)
        return scheduler, result

    t_run, (scheduler, result) = _timed(run, repeats)
    cost = result.cost(RE_ONLINE, RT_ONLINE)
    ops = {"events": result.events, "preemptions": result.total_preemptions}
    ops.update(scheduler.counters())
    return _result(
        "lmc_online_trace",
        {"n_interactive": cfg.n_interactive, "n_noninteractive": cfg.n_noninteractive,
         "duration_s": cfg.duration_s, "seed": cfg.seed,
         "n_cores": n_cores, "re": RE_ONLINE, "rt": RT_ONLINE},
        {"run": t_run},
        ops,
        _checksum(cost.total_cost, result.horizon, result.energy_joules),
    )


#: The cycle counts a churn probe draws from.
CHURN_PROBE_MENU = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


def seeded_churn(
    n_ops: int,
    *,
    re: float = RE_BATCH,
    rt: float = RT_BATCH,
    seed: int = 99,
    tracer: Optional[Tracer] = None,
    label: str = "",
) -> tuple[DynamicCostIndex, float]:
    """Drive one Table II :class:`DynamicCostIndex` through ``n_ops``
    seeded operations: inserts (45%) of ``uniform(0.1, 50)`` cycles,
    deletes (30%) of a random queued task, and marginal-cost probes
    (25%) from :data:`CHURN_PROBE_MENU`. An empty queue always inserts.

    ``seed`` seeds both the operation stream and the index's treap.
    Returns the index and the sum of the probe results.
    """
    index = DynamicCostIndex(
        CostModel(TABLE_II, re, rt), seed=seed, tracer=tracer, label=label
    )
    rng = random.Random(seed)
    handles = []
    probe_sum = 0.0
    for _ in range(n_ops):
        draw = rng.random()
        if draw < 0.45 or not handles:
            handles.append(index.insert(rng.uniform(0.1, 50.0)))
        elif draw < 0.75:
            index.delete(handles.pop(rng.randrange(len(handles))))
        else:
            probe_sum += index.marginal_insert_cost(rng.choice(CHURN_PROBE_MENU))
    return index, probe_sum


def dynamic_churn(quick: bool, repeats: int) -> ScenarioResult:
    """Algorithms 4–6 under random insert/delete/probe churn
    (:func:`seeded_churn`); the probe sum is part of the gated checksum.
    """
    n_ops = 4_000 if quick else 20_000
    t_run, (index, probe_sum) = _timed(lambda: seeded_churn(n_ops), repeats)
    return _result(
        "dynamic_churn",
        {"n_ops": n_ops, "seed": 99, "re": RE_BATCH, "rt": RT_BATCH,
         "probe_menu": list(CHURN_PROBE_MENU)},
        {"run": t_run},
        dict(index.counters),
        _checksum(index.total_cost, probe_sum, len(index)),
    )


@dataclass(frozen=True)
class Scenario:
    """A registered bench scenario: a name, a blurb, and its runner."""

    name: str
    description: str
    fn: Callable[[bool, int], ScenarioResult]


ALL_SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario("wbg_scaling", "Algorithm 3 batch: heap oracle vs merge kernel", wbg_scaling),
        Scenario("lmc_online_trace", "LMC policy over a pinned online trace", lmc_online_trace),
        Scenario("dynamic_churn", "DynamicCostIndex insert/delete/probe churn", dynamic_churn),
    )
}
