"""Cross-validation between independent subsystems.

The batch path (Algorithm 2/3 + batch runner) and the online path (LMC
+ event-driven runner) implement the same cost theory through entirely
different code. Where their domains overlap, they must agree — these
tests exploit the overlap as an end-to-end oracle neither side can
game.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch_multi import WorkloadBasedGreedy
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II
from repro.models.task import Task, TaskKind
from repro.schedulers import LMCOnlineScheduler
from repro.simulator import run_online


def burst_trace(cycles_list):
    """All tasks arrive (effectively) simultaneously at t = 0."""
    return [
        Task(cycles=c, arrival=0.0, kind=TaskKind.NONINTERACTIVE, name=f"t{i}")
        for i, c in enumerate(cycles_list)
    ]


class TestOnlineApproachesBatchOptimum:
    """A time-0 burst is exactly the batch problem; LMC (which never
    migrates and must start serving before the whole burst is known)
    should land close to the WBG optimum, and never below it."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(0.5, 300.0), min_size=1, max_size=25),
        st.integers(1, 4),
    )
    def test_lmc_burst_within_25_percent_of_wbg(self, cycles, n_cores):
        model = CostModel(TABLE_II, 0.4, 0.1)
        wbg = WorkloadBasedGreedy([model] * n_cores)
        optimal = wbg.optimal_cost([Task(cycles=c) for c in cycles])

        res = run_online(
            burst_trace(cycles),
            LMCOnlineScheduler(TABLE_II, n_cores, 0.4, 0.1),
            TABLE_II,
        )
        online_cost = res.cost(0.4, 0.1).total_cost
        assert online_cost >= optimal - 1e-6 * max(1.0, optimal)
        assert online_cost <= 1.25 * optimal + 1e-9

    def test_single_task_burst_exactly_optimal(self):
        model = CostModel(TABLE_II, 0.4, 0.1)
        res = run_online(
            burst_trace([42.0]), LMCOnlineScheduler(TABLE_II, 1, 0.4, 0.1), TABLE_II
        )
        # one task: both paths run it alone at CB* position 1's rate
        expected = model.backward_position_cost(1, 1.6) * 42.0
        assert res.cost(0.4, 0.1).total_cost == pytest.approx(expected, rel=1e-9)

    def test_large_burst_converges_tightly(self):
        """With many tasks the head-start distortion amortises away."""
        cycles = [float(1 + (i * 37) % 200) for i in range(120)]
        model = CostModel(TABLE_II, 0.4, 0.1)
        wbg = WorkloadBasedGreedy([model] * 4)
        optimal = wbg.optimal_cost([Task(cycles=c) for c in cycles])
        res = run_online(
            burst_trace(cycles), LMCOnlineScheduler(TABLE_II, 4, 0.4, 0.1), TABLE_II
        )
        assert res.cost(0.4, 0.1).total_cost <= 1.05 * optimal


class TestQueueIndexIntegrityAfterRuns:
    """After a full online run, LMC's internal indices must be empty and
    structurally sound — every inserted task was popped exactly once."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_indices_drain_clean(self, seed):
        from repro.workloads import JudgeTraceConfig, generate_judge_trace

        cfg = JudgeTraceConfig(
            n_interactive=150, n_noninteractive=40, duration_s=60.0, seed=seed
        )
        lmc = LMCOnlineScheduler(TABLE_II, 3, 0.4, 0.1)
        run_online(generate_judge_trace(cfg), lmc, TABLE_II)
        for q in lmc.policy.queues:
            assert len(q) == 0
            assert q.total_cost == pytest.approx(0.0, abs=1e-6)
            q.check_invariants()
        for j in range(lmc.n_cores):
            assert lmc.policy.waiting_count(j) == 0


class TestVectorizedAgreesWithSimulator:
    """Third leg: the NumPy fast path equals the event-driven measurement."""

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(0.5, 200.0), min_size=1, max_size=15))
    def test_three_way_agreement(self, cycles):
        from repro.core.dominating import DominatingRanges
        from repro.models.vectorized import wbg_optimal_cost
        from repro.schedulers import wbg_plan
        from repro.simulator import run_batch

        model = CostModel(TABLE_II, 0.1, 0.4)
        tasks = [Task(cycles=c) for c in cycles]
        plan = wbg_plan(tasks, TABLE_II, 1, 0.1, 0.4)
        simulated = run_batch(plan, TABLE_II).cost(0.1, 0.4).total_cost
        analytic = model.schedule_cost(plan).total_cost
        vectorised = wbg_optimal_cost([DominatingRanges.from_cost_model(model)], cycles)
        assert simulated == pytest.approx(analytic, rel=1e-9)
        assert vectorised == pytest.approx(analytic, rel=1e-9)
