"""Ablation — sensitivity of the Figure 2 result to the Re:Rt ratio.

The paper fixes Re=0.1 ¢/J and Rt=0.4 ¢/s for the batch experiments.
This ablation sweeps the pricing ratio across four orders of magnitude
and prints how WBG's win over OLB and Power Saving moves: when time is
nearly free, WBG converges to all-minimum-frequency (beats OLB hugely
on energy); when energy is nearly free, WBG converges to all-maximum
(ties OLB). The crossover structure is the design insight behind the
dominating ranges.

The ratio grid is the registered ``cost_weights`` sweep (``repro sweep
cost_weights``).
"""

import pytest

from harness import emit
from repro.analysis.reporting import format_table
from repro.models.rates import TABLE_II
from repro.perf.sweep import COST_WEIGHT_RATIOS, run_sweep
from repro.schedulers import wbg_plan


def test_cost_weight_sweep(benchmark):
    run = benchmark.pedantic(
        lambda: run_sweep("cost_weights"), rounds=1, iterations=1
    )
    assert [(row["re"], row["rt"]) for row in run.rows] == list(COST_WEIGHT_RATIOS)
    rows = [
        (f"{row['re']:g}:{row['rt']:g}",
         f"{row['vs_olb_total_pct']:+.1f}%",
         f"{row['vs_ps_total_pct']:+.1f}%")
        for row in run.rows
    ]
    emit(
        format_table(
            ["Re:Rt", "WBG vs OLB (total)", "WBG vs PS (total)"],
            rows,
            title="Sensitivity of the Fig. 2 margins to the pricing ratio",
        )
    )
    # WBG never loses (it provably minimises the objective), and its win
    # over OLB grows as energy gets relatively more expensive.
    olb_margins = [row["vs_olb_total_pct"] for row in run.rows]
    assert all(m <= 1e-6 for m in olb_margins)
    assert olb_margins[0] >= olb_margins[-1] - 1e-9 or min(olb_margins) < -10.0


def test_extreme_time_pricing_converges_to_max_rate(benchmark, spec_batch):
    """Rt ≫ Re: the optimal plan runs everything at the top frequency."""
    plan = benchmark(wbg_plan, spec_batch, TABLE_II, 4, 1e-6, 10.0)
    rates = {pl.rate for s in plan for pl in s}
    assert rates == {TABLE_II.max_rate}


def test_extreme_energy_pricing_converges_to_min_rate(benchmark, spec_batch):
    """Re ≫ Rt: the optimal plan runs everything at the bottom frequency."""
    plan = benchmark(wbg_plan, spec_batch, TABLE_II, 4, 10.0, 1e-6)
    rates = {pl.rate for s in plan for pl in s}
    assert rates == {TABLE_II.min_rate}
