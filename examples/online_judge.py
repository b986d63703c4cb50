#!/usr/bin/env python3
"""Online judge serving: the paper's Figure 3 experiment, end to end.

Generates a Judgegirl-style exam trace (score queries = interactive
tasks; code submissions = non-interactive judging jobs, piling up
against the exam deadline), then replays it under three online
schedulers on a simulated quad-core with per-core DVFS:

* Least Marginal Cost (the paper's heuristic),
* Opportunistic Load Balancing (earliest-ready core, max frequency),
* On-demand (round-robin placement, Linux governor frequencies).

Prints the Figure 3 normalized cost comparison plus the service-level
view (interactive response times, judging turnaround) that motivates
the two task classes.

Run:  python examples/online_judge.py           # ~2 minutes of sim work
      python examples/online_judge.py --small   # scaled-down, a few seconds
"""

import sys

from repro import JudgeTraceConfig, TABLE_II, TaskKind, generate_judge_trace
from repro.analysis.metrics import improvement_summary, normalize_costs
from repro.analysis.reporting import format_table, render_cost_comparison
from repro.schedulers import online_comparison
from repro.workloads.trace import trace_summary

RE, RT = 0.4, 0.1  # online pricing: energy is the scarce resource here
CORES = 4


def main() -> None:
    if "--small" in sys.argv:
        cfg = JudgeTraceConfig(n_interactive=3000, n_noninteractive=200,
                               duration_s=450.0, seed=11)
    else:
        cfg = JudgeTraceConfig()  # the paper's published aggregates

    trace = generate_judge_trace(cfg)
    s = trace_summary(trace)
    print(f"trace: {s.n_interactive} interactive + {s.n_noninteractive} judging tasks, "
          f"{s.utilisation_at(TABLE_II.max_rate, CORES) * 100:.0f}% offered load "
          f"at max frequency\n")

    results = online_comparison(trace, CORES, RE, RT)
    costs = {k: r.cost(RE, RT) for k, r in results.items()}

    print(render_cost_comparison(
        normalize_costs(costs, "LMC"), "LMC", "Figure 3 — online mode cost comparison"
    ))
    for base, paper in (("OLB", "(paper: −11% energy, −31% time, −17% total)"),
                        ("OD", "(paper: −11% energy, −46% time, −24% total)")):
        d = improvement_summary(costs, "LMC", base)
        print(f"LMC vs {base}: {d['energy_pct']:+.1f}% energy, "
              f"{d['time_pct']:+.1f}% time, {d['total_pct']:+.1f}% total {paper}")

    # the service-level story behind the numbers
    rows = []
    for name, res in results.items():
        rows.append(
            (
                name,
                f"{res.mean_response(TaskKind.INTERACTIVE) * 1000:.2f} ms",
                f"{res.response_percentile(TaskKind.INTERACTIVE, 0.99) * 1000:.2f} ms",
                f"{100 * res.deadline_miss_rate(TaskKind.INTERACTIVE):.2f}%",
                f"{res.mean_turnaround(TaskKind.NONINTERACTIVE):.1f} s",
                f"{res.energy_joules:.0f} J",
                sum(r.preemptions for r in res.records),
            )
        )
    print()
    print(format_table(
        ["Policy", "Mean query response", "p99 response", "SLO misses",
         "Mean judging turnaround", "Energy", "Preemptions"],
        rows,
        title="Service-level view (interactive SLO = 1 s response deadline)",
    ))
    print("\nLMC keeps query responses instant (interactive preemption at max")
    print("frequency), drains the submission burst shortest-job-first, and")
    print("clocks each judging job by its queue position instead of pinning 3 GHz.")


if __name__ == "__main__":
    main()
