"""Ablation — why LMC instead of re-running WBG on every arrival.

Section IV: "the Workload Based Greedy algorithm can be used to
redistribute all tasks to cores when a new task arrives. According to
Theorem 5, rearranging the tasks yields the minimum cost. However,
because the overhead incurred by the time and energy used to migrate
tasks could impact the performance, we need a lightweight strategy
without task migration."

Two measurements back that trade-off:

1. decision latency — one LMC placement vs one full WBG re-plan, at
   growing queue depths (the scheduler runs on the critical path of
   every arrival);
2. cost optimality gap — LMC's achieved queue cost vs the WBG
   rearrangement lower bound on identical task populations (migration
   would buy only this much).
"""

import random

import pytest

from harness import RE_ONLINE, RT_ONLINE, emit
from repro.analysis.reporting import format_table
from repro.core.batch_multi import WorkloadBasedGreedy
from repro.core.online_lmc import LeastMarginalCostPolicy
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II
from repro.models.task import Task


def _loaded_policy(depth: int, seed: int = 5) -> LeastMarginalCostPolicy:
    rng = random.Random(seed)
    policy = LeastMarginalCostPolicy([CostModel(TABLE_II, RE_ONLINE, RT_ONLINE)] * 4)
    for _ in range(depth * 4):
        core = policy.choose_core_noninteractive(rng.uniform(0.1, 500.0))
        policy.enqueue(core, rng.uniform(0.1, 500.0))
    return policy


@pytest.mark.parametrize("depth", [50, 500])
def test_lmc_single_decision(benchmark, depth):
    policy = _loaded_policy(depth)

    def decide():
        core = policy.choose_core_noninteractive(42.0)
        node = policy.enqueue(core, 42.0)
        policy.remove(core, node)

    benchmark(decide)


@pytest.mark.parametrize("depth", [50, 500])
def test_full_wbg_replan(benchmark, depth):
    """The migration alternative: re-plan the whole population per arrival."""
    rng = random.Random(5)
    cycles = [rng.uniform(0.1, 500.0) for _ in range(depth * 4)]
    model = CostModel(TABLE_II, RE_ONLINE, RT_ONLINE)
    wbg = WorkloadBasedGreedy([model] * 4)

    def replan():
        tasks = [Task(cycles=c) for c in cycles + [42.0]]
        return wbg.schedule(tasks)

    schedules = benchmark(replan)
    assert sum(len(s) for s in schedules) == depth * 4 + 1


def test_lmc_cost_gap_vs_wbg_lower_bound(benchmark):
    """How much total queue cost does avoiding migration actually forfeit?"""

    def measure():
        rows = []
        for depth in (25, 100, 400):
            policy = _loaded_policy(depth)
            lmc_cost = policy.total_queued_cost()
            # the WBG rearrangement of the very same queued tasks
            cycles = [
                node.value for q in policy.queues for node in q.tree
            ]
            wbg = WorkloadBasedGreedy(policy.models)
            lower = wbg.optimal_cost([Task(cycles=c) for c in cycles])
            rows.append((depth * 4, lmc_cost, lower, f"{100 * (lmc_cost / lower - 1):.2f}%"))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        format_table(
            ["Queued tasks", "LMC cost", "WBG rearranged", "Gap"],
            rows,
            title="Cost forfeited by scheduling without migration (Section IV trade-off)",
        )
    )
    for _, lmc_cost, lower, _ in rows:
        assert lmc_cost >= lower - 1e-6  # WBG is the provable floor
        assert lmc_cost <= 1.25 * lower  # and LMC stays within ~25% of it


def test_end_to_end_lmc_vs_wbg_rerun(benchmark):
    """Full online runs: LMC vs the migration-enabled re-plan policy.

    The rejected alternative re-runs Algorithm 3 over all waiting tasks
    on every arrival (freely moving queued tasks between cores); the
    bench reports the cost delta and the migration volume the paper's
    lightweight heuristic avoids.
    """
    from repro.models.rates import TABLE_II as T2
    from repro.schedulers import LMCOnlineScheduler, WBGRerunScheduler
    from repro.simulator import run_online
    from repro.workloads import JudgeTraceConfig, generate_judge_trace

    cfg = JudgeTraceConfig(
        n_interactive=2000, n_noninteractive=200, duration_s=300.0, seed=13
    )
    trace = generate_judge_trace(cfg)

    def run_both():
        lmc = run_online(trace, LMCOnlineScheduler(T2, 4, RE_ONLINE, RT_ONLINE), T2)
        rerun_policy = WBGRerunScheduler(T2, 4, RE_ONLINE, RT_ONLINE)
        rerun = run_online(trace, rerun_policy, T2)
        return (
            lmc.cost(RE_ONLINE, RT_ONLINE).total_cost,
            rerun.cost(RE_ONLINE, RT_ONLINE).total_cost,
            rerun_policy.migrations,
        )

    lmc_cost, rerun_cost, migrations = benchmark.pedantic(run_both, rounds=1, iterations=1)
    emit(
        f"LMC total cost {lmc_cost:.4g} vs WBG-rerun {rerun_cost:.4g} "
        f"({100 * (lmc_cost / rerun_cost - 1):+.1f}%), at the price of "
        f"{migrations} queued-task migrations the paper's heuristic avoids"
    )
    # the lightweight policy stays within 10% of the migration-enabled one
    assert lmc_cost <= 1.10 * rerun_cost
