"""Traced reference scenarios behind ``repro trace``.

Each scenario is a small, fully seeded workload run with a
:class:`~repro.obs.tracer.RecordingTracer` attached, chosen so its
decision log is short enough to read end to end:

* ``wbg``     — Algorithm 3 over the Table I SPEC batch (24 tasks) on a
  Table II platform: one ``ranges.build`` per core, one ``wbg.schedule``
  summary, one ``wbg.slot_pick`` per task.
* ``lmc``     — the online LMC policy over a seeded Judgegirl-style
  trace through the event-driven runner: ``lmc.*`` decisions plus the
  ``dynamic.*`` queue mutations and ``sim.*`` lifecycle events.
* ``dynamic`` — Algorithms 4–6 under seeded insert/delete/probe churn
  on a single :class:`~repro.core.dynamic.DynamicCostIndex`.

The same seeds always produce the same decisions, so traces are
reproducible artefacts — diffable across code changes.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Optional

from repro.models.cost import RE_BATCH, RE_ONLINE, RT_BATCH, RT_ONLINE
from repro.obs.tracer import Tracer


def run_wbg(
    tracer: Tracer,
    *,
    re: float = RE_BATCH,
    rt: float = RT_BATCH,
    n_cores: int = 2,
) -> dict[str, Any]:
    """Trace Algorithm 3 over the Table I SPEC batch (fixed, so unseeded)."""
    from repro.core.batch_multi import WorkloadBasedGreedy
    from repro.models.cost import CostModel
    from repro.models.rates import TABLE_II
    from repro.workloads.spec import spec_tasks

    tasks = spec_tasks("both")
    models = [CostModel(TABLE_II, re, rt) for _ in range(n_cores)]
    scheduler = WorkloadBasedGreedy(models, tracer=tracer)
    plan = scheduler.schedule(tasks)
    cost = scheduler.schedule_cost(plan)
    return {
        "scenario": "wbg",
        "n_tasks": len(tasks),
        "n_cores": n_cores,
        "re": re,
        "rt": rt,
        "total_cost": cost.total_cost,
        "task_ids": [t.task_id for t in tasks],
        "task_names": [t.name for t in tasks],
    }


def run_lmc(
    tracer: Tracer,
    *,
    re: float = RE_ONLINE,
    rt: float = RT_ONLINE,
    n_cores: int = 2,
    seed: int = 2014,
) -> dict[str, Any]:
    """Trace the LMC policy over a short seeded online trace."""
    from repro.models.rates import TABLE_II
    from repro.schedulers import LMCOnlineScheduler
    from repro.simulator import run_online
    from repro.workloads import JudgeTraceConfig, generate_judge_trace

    cfg = JudgeTraceConfig(
        n_interactive=40, n_noninteractive=12, duration_s=30.0, seed=seed
    )
    trace = generate_judge_trace(cfg)
    scheduler = LMCOnlineScheduler(TABLE_II, n_cores, re, rt, tracer=tracer)
    result = run_online(trace, scheduler, TABLE_II, tracer=tracer)
    cost = result.cost(re, rt)
    return {
        "scenario": "lmc",
        "n_tasks": len(trace),
        "n_cores": n_cores,
        "re": re,
        "rt": rt,
        "seed": seed,
        "total_cost": cost.total_cost,
        "energy_joules": result.energy_joules,
        "horizon": result.horizon,
        "preemptions": result.total_preemptions,
        "task_ids": [t.task_id for t in trace],
        "task_names": [t.name for t in trace],
    }


def run_dynamic(
    tracer: Tracer,
    *,
    re: float = RE_BATCH,
    rt: float = RT_BATCH,
    seed: int = 99,
) -> dict[str, Any]:
    """Trace Algorithms 4–6 under seeded insert/delete/probe churn on a
    single queue (so no core count): the ``dynamic_churn`` bench loop,
    shortened to 120 operations."""
    from repro.perf.scenarios import seeded_churn

    n_ops = 120
    index, probe_sum = seeded_churn(
        n_ops, re=re, rt=rt, seed=seed, tracer=tracer, label="queue"
    )
    return {
        "scenario": "dynamic",
        "n_ops": n_ops,
        "re": re,
        "rt": rt,
        "seed": seed,
        "total_cost": index.total_cost,
        "probe_sum": probe_sum,
        "queue_len": len(index),
        "counters": dict(index.counters),
    }


ScenarioFn = Callable[..., dict[str, Any]]

#: Scenario name -> (runner, one-line description) for the CLI.
TRACE_SCENARIOS: dict[str, tuple[ScenarioFn, str]] = {
    "wbg": (run_wbg, "Algorithm 3 over the Table I SPEC batch"),
    "lmc": (run_lmc, "online LMC policy over a seeded Judgegirl trace"),
    "dynamic": (run_dynamic, "DynamicCostIndex insert/delete/probe churn"),
}


def run_traced_scenario(
    name: str,
    tracer: Tracer,
    *,
    re: Optional[float] = None,
    rt: Optional[float] = None,
    n_cores: Optional[int] = None,
    seed: Optional[int] = None,
) -> dict[str, Any]:
    """Run a named scenario with ``tracer`` attached; returns a summary.

    ``None`` keyword values fall back to the scenario's own defaults
    (the paper's pricing for its mode). An option the scenario does not
    take (``seed`` for ``wbg``, ``n_cores`` for ``dynamic``) raises
    :class:`ValueError` rather than being ignored.
    """
    try:
        fn, _ = TRACE_SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown trace scenario {name!r}; choose from {sorted(TRACE_SCENARIOS)}"
        ) from None
    options = {"re": re, "rt": rt, "n_cores": n_cores, "seed": seed}
    kwargs = {k: v for k, v in options.items() if v is not None}
    unused = sorted(set(kwargs) - set(inspect.signature(fn).parameters))
    if unused:
        raise ValueError(
            f"trace scenario {name!r} does not take option(s): {', '.join(unused)}"
        )
    return fn(tracer, **kwargs)
