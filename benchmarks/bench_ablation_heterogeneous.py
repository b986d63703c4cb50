"""Ablation — heterogeneous (big.LITTLE) platforms, batch and online.

Section III-C and Section IV both claim the algorithms handle
heterogeneous cores. This bench quantifies the claim on a
2×big + 2×LITTLE platform: WBG vs naive placements for batch, LMC vs
OLB for online, and the cost of *ignoring* heterogeneity (treating all
cores as big when half are little).
"""

import pytest

from harness import RE_BATCH, RE_ONLINE, RT_BATCH, RT_ONLINE, emit
from repro.analysis.reporting import format_table
from repro.core.batch_multi import WorkloadBasedGreedy
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II, rate_table_from_power_law
from repro.schedulers import LMCOnlineScheduler, OLBOnlineScheduler
from repro.simulator import run_online
from repro.workloads import generate_open_loop_trace
from repro.workloads.synthetic import bimodal_batch

LITTLE = rate_table_from_power_law(
    [0.6, 0.9, 1.2, 1.5], dynamic_coefficient=0.25, name="little"
)
HET_TABLES = [TABLE_II, TABLE_II, LITTLE, LITTLE]


def _het_models(re, rt):
    return [CostModel(t, re, rt) for t in HET_TABLES]


def test_batch_wbg_exploits_heterogeneity(benchmark):
    tasks = list(bimodal_batch(32, small=8.0, large=240.0, large_fraction=0.3, seed=6))
    wbg = WorkloadBasedGreedy(_het_models(RE_BATCH, RT_BATCH))

    schedules = benchmark(wbg.schedule, tasks)
    het_cost = wbg.schedule_cost(schedules).total_cost

    # alternative 1: pretend all four cores are big (then price correctly)
    big_only = WorkloadBasedGreedy([CostModel(TABLE_II, RE_BATCH, RT_BATCH)] * 2)
    big_cost = big_only.schedule_cost(big_only.schedule(tasks)).total_cost
    # alternative 2: little cores only
    little_only = WorkloadBasedGreedy([CostModel(LITTLE, RE_BATCH, RT_BATCH)] * 2)
    little_cost = little_only.schedule_cost(little_only.schedule(tasks)).total_cost

    emit(
        format_table(
            ["Platform", "Total cost"],
            [
                ("2 big + 2 LITTLE (WBG)", het_cost),
                ("2 big only", big_cost),
                ("2 LITTLE only", little_cost),
            ],
            title="Batch: heterogeneity exploited by Workload Based Greedy",
        )
    )
    assert het_cost < big_cost
    assert het_cost < little_cost

    # structural check: most heavy tasks sink to the efficient LITTLE tails
    heavy_on_little = sum(
        1
        for s in schedules
        if s.core_index >= 2
        for pl in s
        if pl.task.cycles > 100.0
    )
    heavy_total = sum(1 for t in tasks if t.cycles > 100.0)
    assert heavy_on_little >= heavy_total // 2


def test_online_lmc_on_heterogeneous_platform(benchmark):
    trace = generate_open_loop_trace(120.0, interactive_per_s=3.0,
                                     noninteractive_per_s=1.0, seed=12)

    def run_pair():
        lmc = run_online(
            trace, LMCOnlineScheduler(HET_TABLES, 4, RE_ONLINE, RT_ONLINE), HET_TABLES
        ).cost(RE_ONLINE, RT_ONLINE)
        olb = run_online(
            trace, OLBOnlineScheduler(HET_TABLES, 4), HET_TABLES
        ).cost(RE_ONLINE, RT_ONLINE)
        return lmc, olb

    lmc, olb = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    emit(
        f"online heterogeneous: LMC {lmc.total_cost:.4g} vs OLB {olb.total_cost:.4g} "
        f"({100 * (lmc.total_cost / olb.total_cost - 1):+.1f}%)"
    )
    assert lmc.total_cost < olb.total_cost
