"""Ablation — converged-governor assumption vs real governor dynamics.

The Figure 2 baselines fix each plan's frequency at the governor's
converged choice (a 100 %-loaded core pins the maximum available rate).
Real ondemand behaviour has dynamics the fixed-rate plan ignores:
1-second sampling, step-downs around completions, the initial state.
This ablation replays the *same* OLB and Power Saving lanes through the
event-driven runner with live per-core governors and reports the cost
difference — it should be small, validating the Figure 2 methodology.
"""

import pytest

from harness import RE_BATCH, RT_BATCH, emit
from repro.analysis.reporting import format_table
from repro.governors import OnDemandGovernor, PowerSavingGovernor
from repro.models.rates import TABLE_II
from repro.models.task import Task, TaskKind
from repro.schedulers import olb_plan, power_saving_plan
from repro.schedulers.fixed_assignment import FixedAssignmentScheduler
from repro.simulator import run_batch, run_online
from repro.workloads import spec_tasks


def _as_online_trace(plan):
    """Plan tasks as time-0 non-interactive arrivals (batch semantics)."""
    trace = []
    for sched in plan:
        for pl in sched.placements:
            t = pl.task
            trace.append(
                Task(cycles=t.cycles, arrival=0.0, kind=TaskKind.NONINTERACTIVE,
                     name=t.name, task_id=t.task_id)
            )
    return trace


def _compare(plan, governor_factory):
    fixed = run_batch(plan, TABLE_II).cost(RE_BATCH, RT_BATCH)
    governors = [governor_factory() for _ in range(len(plan))]
    dynamic = run_online(
        _as_online_trace(plan),
        FixedAssignmentScheduler(plan),
        TABLE_II,
        governors=governors,
    ).cost(RE_BATCH, RT_BATCH)
    return fixed, dynamic


def test_olb_converged_vs_dynamic(benchmark, spec_batch):
    plan = olb_plan(spec_batch, TABLE_II, 4)
    fixed, dynamic = benchmark.pedantic(
        _compare, args=(plan, lambda: OnDemandGovernor(TABLE_II)),
        rounds=1, iterations=1,
    )
    gap = dynamic.total_cost / fixed.total_cost - 1.0
    emit(
        format_table(
            ["OLB", "Energy cost", "Time cost", "Total"],
            [
                ("converged (Fig. 2 assumption)", fixed.energy_cost,
                 fixed.temporal_cost, fixed.total_cost),
                ("live ondemand governor", dynamic.energy_cost,
                 dynamic.temporal_cost, dynamic.total_cost),
            ],
            title=f"Governor dynamics vs converged assumption (gap {100 * gap:+.2f}%)",
        )
    )
    # under full batch load ondemand converges within one sampling period,
    # so the assumption holds to within a percent
    assert abs(gap) < 0.01


def test_power_saving_converged_vs_dynamic(benchmark, spec_batch):
    plan = power_saving_plan(spec_batch, TABLE_II, 4)
    fixed, dynamic = benchmark.pedantic(
        _compare, args=(plan, lambda: PowerSavingGovernor(TABLE_II)),
        rounds=1, iterations=1,
    )
    gap = dynamic.total_cost / fixed.total_cost - 1.0
    emit(f"Power Saving: converged {fixed.total_cost:.4g} vs live governor "
         f"{dynamic.total_cost:.4g} (gap {100 * gap:+.2f}%)")
    assert abs(gap) < 0.01
