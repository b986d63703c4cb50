#!/usr/bin/env python3
"""Datacenter batch scheduling: the paper's Figure 2 experiment, end to end.

Schedules the 24 SPEC2006int workloads (Table I) on a simulated
quad-core i7-950 with per-core DVFS under three schedulers —

* Workload Based Greedy (the paper's optimal batch algorithm),
* Opportunistic Load Balancing (max frequency, earliest-ready core),
* Power Saving (frequencies restricted to 1.6-2.4 GHz),

— then prices every run at Re=0.1 ¢/J, Rt=0.4 ¢/s and prints the
normalized comparison of Figure 2, followed by a pricing sweep showing
how the optimal plan shifts as energy gets more expensive.

Run:  python examples/datacenter_batch.py
"""

from collections import Counter

from repro import TABLE_II, run_batch, spec_tasks, wbg_plan
from repro.analysis.metrics import improvement_summary, normalize_costs
from repro.analysis.powerprofile import batch_power_profile
from repro.analysis.reporting import format_table, render_cost_comparison
from repro.schedulers import batch_comparison

RE, RT = 0.1, 0.4


def main() -> None:
    tasks = spec_tasks()
    print(f"workload: {len(tasks)} SPEC2006int runs, "
          f"{tasks.total_cycles():.0f} Gcycles total\n")

    results = batch_comparison(tasks, 4, RE, RT)
    costs = {name: r.cost(RE, RT) for name, r in results.items()}

    print(render_cost_comparison(
        normalize_costs(costs, "WBG"), "WBG", "Figure 2 — batch mode cost comparison"
    ))
    d = improvement_summary(costs, "WBG", "OLB")
    print(f"\nWBG vs OLB: {d['energy_pct']:+.1f}% energy, {d['time_pct']:+.1f}% time, "
          f"{d['total_pct']:+.1f}% total (paper: −46%, +4%, −27%)")
    d = improvement_summary(costs, "WBG", "PS")
    print(f"WBG vs PS : {d['energy_pct']:+.1f}% energy, {d['time_pct']:+.1f}% time, "
          f"{d['total_pct']:+.1f}% total (paper: −27%, −13%)")

    # what does the optimal plan actually look like? count rate usage
    print("\nfrequency mix chosen by WBG (tasks per rate):")
    mix = Counter(record.rate for record in results["WBG"].records)
    for rate in sorted(mix):
        print(f"  {rate:g} GHz: {'#' * mix[rate]} ({mix[rate]})")

    # what the wall meter would see: power profile of the two runs,
    # derived from each run's task records
    for name in ("WBG", "OLB"):
        print(f"\nplatform power over time — {name}:")
        print(batch_power_profile(results[name], TABLE_II, width=64, height=5))

    # pricing sweep: the same workload under different energy prices
    rows = []
    for re in (0.02, 0.05, 0.1, 0.2, 0.5):
        plan = wbg_plan(tasks, TABLE_II, 4, re, RT)
        cost = run_batch(plan, TABLE_II).cost(re, RT)
        mix = Counter(pl.rate for s in plan for pl in s)
        dominant = max(mix, key=lambda r: mix[r])
        rows.append((f"{re:g}", f"{cost.energy_joules:.0f}", f"{cost.makespan:.0f}",
                     f"{dominant:g} GHz ({mix[dominant]}/24)"))
    print()
    print(format_table(
        ["Re (¢/J)", "Energy (J)", "Makespan (s)", "Most-used rate"],
        rows,
        title=f"How the optimal plan shifts with the energy price (Rt={RT} ¢/s)",
    ))


if __name__ == "__main__":
    main()
