"""Figure 2 — batch mode: WBG vs Opportunistic Load Balancing vs Power Saving.

Reproduces Section V-A3 on the 24 SPEC workloads, four cores, Table II
rates, Re=0.1 ¢/J, Rt=0.4 ¢/s. Prints the normalized time / energy /
total-cost series of Figure 2 and the paper-prose improvement numbers.

Paper: "Workload Based Greedy consumes 46% less energy than
Opportunistic Load Balancing with only a 4% slowdown in the execution
time. The total cost reduction is about 27%. Compared with Power
Saving, Workload Based Greedy consumes 27% less energy and improves the
execution time by 13%."
"""

import pytest

from harness import RE_BATCH, RT_BATCH, emit
from repro.analysis.metrics import improvement_summary, normalize_costs
from repro.analysis.reporting import render_cost_breakdown, render_cost_comparison
from repro.models.rates import TABLE_II
from repro.schedulers import batch_comparison, wbg_plan


def _run_all(tasks):
    results = batch_comparison(tasks, 4, RE_BATCH, RT_BATCH)
    return {name: r.cost(RE_BATCH, RT_BATCH) for name, r in results.items()}


def test_fig2_comparison(benchmark, spec_batch):
    costs = benchmark(_run_all, spec_batch)

    norm = normalize_costs(costs, "WBG")
    emit(render_cost_comparison(norm, "WBG", "FIG. 2 — BATCH MODE COST COMPARISON"))
    emit(render_cost_breakdown(costs, "Raw components"))
    vs_olb = improvement_summary(costs, "WBG", "OLB")
    vs_ps = improvement_summary(costs, "WBG", "PS")
    emit(
        f"WBG vs OLB: energy {vs_olb['energy_pct']:+.1f}% (paper −46%), "
        f"time {vs_olb['time_pct']:+.1f}% (paper +4%), "
        f"total {vs_olb['total_pct']:+.1f}% (paper −27%)\n"
        f"WBG vs PS : energy {vs_ps['energy_pct']:+.1f}% (paper −27%), "
        f"time {vs_ps['time_pct']:+.1f}% (paper −13%), "
        f"total {vs_ps['total_pct']:+.1f}%"
    )

    # the paper's shape
    assert costs["WBG"].total_cost < costs["PS"].total_cost < costs["OLB"].total_cost
    assert vs_olb["energy_pct"] < -30.0  # large energy win over OLB
    assert abs(vs_olb["time_pct"]) < 15.0  # small time penalty
    assert vs_ps["energy_pct"] < 0.0 and vs_ps["time_pct"] < 0.0  # dominates PS


def test_fig2_wbg_plan_generation(benchmark, spec_batch):
    """Scheduler overhead: producing the optimal plan itself is cheap."""
    plan = benchmark(wbg_plan, spec_batch, TABLE_II, 4, RE_BATCH, RT_BATCH)
    assert sum(len(s) for s in plan) == 24
