"""Ablation — Algorithm 1's Θ(|P|) construction vs the naive argmin scan.

The paper's Section III extension is precisely that dominating position
ranges can be computed in Θ(|P|) once, instead of re-evaluating
``argmin_p CB(k, p)`` per position. This bench quantifies both sides
and cross-checks the continuous-rate lower bound (how much the discrete
menu costs relative to the closed-form optimal rate).
"""

import pytest

from harness import RE_BATCH, RT_BATCH, emit
from repro.analysis.reporting import format_table
from repro.core.dominating import DominatingRanges, brute_force_ranges
from repro.models.cost import CostModel
from repro.models.energy import PowerLawEnergy
from repro.models.rates import TABLE_II


POSITIONS = 2000


def test_algorithm1_construction(benchmark):
    model = CostModel(TABLE_II, RE_BATCH, RT_BATCH)
    ranges = benchmark(DominatingRanges.from_cost_model, model)
    assert len(ranges.effective_rates) == 5


def test_naive_per_position_argmin(benchmark):
    """The O(n·|P|) baseline Algorithm 1 replaces."""
    model = CostModel(TABLE_II, RE_BATCH, RT_BATCH)
    rates = benchmark(brute_force_ranges, model, POSITIONS)
    # agreement with Algorithm 1 everywhere
    dr = DominatingRanges.from_cost_model(model)
    assert rates == [dr.rate_for(k) for k in range(1, POSITIONS + 1)]


def test_rate_lookup_after_precompute(benchmark):
    """Per-position cost after the Θ(|P|) precompute: one binary search."""
    model = CostModel(TABLE_II, RE_BATCH, RT_BATCH)
    dr = DominatingRanges.from_cost_model(model)

    def lookup_all():
        return [dr.rate_for(k) for k in range(1, POSITIONS + 1)]

    rates = benchmark(lookup_all)
    assert len(rates) == POSITIONS


def test_discretisation_loss_vs_continuous(benchmark):
    """How close does Table II get to the continuous-rate optimum?

    Uses the cubic power-law model fitted through Table II's endpoints
    and the closed-form optimal rate; prints the per-position loss.
    """
    power = PowerLawEnergy(coefficient=3.375 / 1.6**2, alpha=3.0)
    table = power.discretize(list(TABLE_II.rates))
    model = CostModel(table, RE_BATCH, RT_BATCH)
    dr = benchmark(DominatingRanges.from_cost_model, model)

    rows = []
    worst = 0.0
    for kb in (1, 2, 5, 10, 20, 50, 100):
        discrete_cost = dr.cost(kb)
        p_star = power.optimal_rate(RE_BATCH, RT_BATCH, kb - 1)
        continuous_cost = (
            RE_BATCH * power.energy_per_cycle(p_star)
            + kb * RT_BATCH * power.time_per_cycle(p_star)
        )
        loss = discrete_cost / continuous_cost - 1.0
        worst = max(worst, loss)
        rows.append((kb, f"{dr.rate_for(kb):g}", f"{p_star:.3f}", f"{100 * loss:.2f}%"))
    emit(
        format_table(
            ["Backward pos", "Discrete rate", "Continuous p*", "Cost loss"],
            rows,
            title="Discretisation loss of the Table II menu vs continuous DVFS",
        )
    )
    # Table II's five steps should stay within ~25% of the continuous optimum
    # at every position (the menu brackets p* except at the extremes).
    assert worst < 0.40
