"""Ablation — LMC's sensitivity to cycle-count estimation error.

The online model assumes cycle counts are known ("estimated by
profiling", Section IV; "taking average of the previous completed
submissions", Section V-B). This ablation quantifies how much that
assumption carries: the Figure 3 experiment is re-run with

* the oracle (paper baseline),
* multiplicative log-normal noise of growing σ,
* the paper's own running-mean predictor learning online from
  completions (cold-started — the realistic deployment).

A robust heuristic should degrade gracefully: mis-estimating sizes
perturbs queue order and frequency choices, but the structure
(SJF-ish queues, positional rates) keeps costs close to the oracle.
"""

import pytest

from harness import RE_ONLINE, RT_ONLINE, emit
from repro.analysis.reporting import format_table
from repro.models.rates import TABLE_II
from repro.schedulers import LMCOnlineScheduler
from repro.simulator import run_online
from repro.workloads import (
    JudgeTraceConfig,
    MeanEstimator,
    NoisyOracle,
    generate_judge_trace,
)


@pytest.fixture(scope="module")
def trace():
    cfg = JudgeTraceConfig(
        n_interactive=5000, n_noninteractive=300, duration_s=600.0, seed=17
    )
    return generate_judge_trace(cfg)


def _cost_with(trace, estimator):
    lmc = LMCOnlineScheduler(TABLE_II, 4, RE_ONLINE, RT_ONLINE, estimator=estimator)
    return run_online(trace, lmc, TABLE_II).cost(RE_ONLINE, RT_ONLINE).total_cost


def test_estimation_error_sweep(benchmark, trace):
    def sweep():
        rows = []
        oracle = _cost_with(trace, None)
        rows.append(("oracle (paper)", oracle, 0.0))
        for sigma in (0.2, 0.5, 1.0):
            c = _cost_with(trace, NoisyOracle(sigma, seed=3))
            rows.append((f"noise σ={sigma:g}", c, 100 * (c / oracle - 1)))
        c = _cost_with(trace, MeanEstimator(default=10.0))
        rows.append(("running mean (V-B)", c, 100 * (c / oracle - 1)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        format_table(
            ["Estimator", "Total cost", "vs oracle"],
            [(n, f"{c:.4g}", f"{d:+.1f}%") for n, c, d in rows],
            title="LMC cost under cycle-estimation error",
        )
    )
    oracle = rows[0][1]
    # graceful degradation: even σ=1.0 noise and the cold-start mean stay
    # within 50% of the oracle's total cost on this trace
    for name, cost, _ in rows:
        assert cost < 1.5 * oracle, f"{name} degraded too far"
    # mild noise is nearly free
    assert rows[1][1] < 1.15 * oracle


def test_mean_estimator_decision_overhead(benchmark, trace):
    """The predictor adds negligible per-arrival cost."""
    est = MeanEstimator(default=10.0)
    ni_tasks = [t for t in trace if t.kind.value == "noninteractive"]
    for t in ni_tasks[:100]:
        est.observe(t, t.cycles)

    def estimate_many():
        return sum(est.estimate(t) for t in ni_tasks[:200])

    total = benchmark(estimate_many)
    assert total > 0
