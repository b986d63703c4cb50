"""Tests for cycle-count estimation (Section V-B's profiling loop)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.models.rates import TABLE_II
from repro.models.task import Task, TaskKind
from repro.schedulers import LMCOnlineScheduler
from repro.simulator import run_online
from repro.workloads import (
    JudgeTraceConfig,
    MeanEstimator,
    NoisyOracle,
    generate_judge_trace,
)
from repro.workloads.estimation import category_of


def named(name, cycles=10.0):
    return Task(cycles=cycles, name=name, kind=TaskKind.NONINTERACTIVE)


class TestCategorisation:
    def test_trace_names(self):
        assert category_of(named("submit3/p4")) == "p4"
        assert category_of(named("query17")) == "query"
        assert category_of(named("")) == "_default"


class TestMeanEstimator:
    def test_cold_start_default(self):
        est = MeanEstimator(default=7.0)
        assert est.estimate(named("submit0/p1")) == 7.0

    def test_running_mean_per_category(self):
        est = MeanEstimator(default=7.0)
        est.observe(named("submit0/p1"), 10.0)
        est.observe(named("submit1/p1"), 20.0)
        est.observe(named("submit2/p2"), 100.0)
        assert est.estimate(named("submit3/p1")) == pytest.approx(15.0)
        assert est.estimate(named("submit4/p2")) == pytest.approx(100.0)
        assert est.observations("p1") == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            MeanEstimator(default=0.0)
        est = MeanEstimator()
        with pytest.raises(ValueError):
            est.observe(named("x/p1"), 0.0)

    @given(st.lists(st.floats(0.1, 1e4), min_size=1, max_size=30))
    def test_mean_property(self, values):
        est = MeanEstimator()
        for v in values:
            est.observe(named("s/p1"), v)
        assert est.estimate(named("t/p1")) == pytest.approx(sum(values) / len(values))


class TestNoisyOracle:
    def test_zero_sigma_is_exact(self):
        t = named("x", cycles=42.0)
        assert NoisyOracle(0.0).estimate(t) == 42.0

    def test_deterministic_per_task(self):
        oracle = NoisyOracle(0.5, seed=3)
        t = named("x", cycles=42.0)
        assert oracle.estimate(t) == oracle.estimate(t)

    def test_noise_positive_and_spread(self):
        oracle = NoisyOracle(1.0, seed=1)
        tasks = [named(f"t{i}", cycles=10.0) for i in range(200)]
        ests = [oracle.estimate(t) for t in tasks]
        assert all(e > 0 for e in ests)
        assert max(ests) > 2 * min(ests)  # real spread at sigma=1

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            NoisyOracle(-0.1)


class TestEndToEndEstimation:
    @pytest.fixture(scope="class")
    def small_trace(self):
        cfg = JudgeTraceConfig(
            n_interactive=300, n_noninteractive=60, duration_s=120.0, seed=21
        )
        return generate_judge_trace(cfg)

    def test_perfect_estimator_matches_default(self, small_trace):
        base = run_online(
            small_trace, LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1), TABLE_II
        )
        # sigma 0: every estimate is the true cycle count
        perfect = run_online(
            small_trace,
            LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1, estimator=NoisyOracle(0.0)),
            TABLE_II,
        )
        assert base.cost(0.4, 0.1).total_cost == pytest.approx(
            perfect.cost(0.4, 0.1).total_cost, rel=1e-9
        )

    def test_all_tasks_complete_under_noise(self, small_trace):
        res = run_online(
            small_trace,
            LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1, estimator=NoisyOracle(0.8, seed=4)),
            TABLE_II,
        )
        assert len(res.records) == len(small_trace)
        # energy is still physical (true cycles × menu energies)
        for rec in res.records:
            assert rec.energy_joules >= rec.task.cycles * TABLE_II.energy(1.6) - 1e-6

    def test_mean_estimator_learns_from_completions(self, small_trace):
        est = MeanEstimator(default=5.0)
        run_online(
            small_trace,
            LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1, estimator=est),
            TABLE_II,
        )
        # after the run every problem category has observations
        assert sum(est.observations(f"p{k}") for k in range(1, 6)) == 60

    def test_noise_degrades_cost_only_mildly(self, small_trace):
        """Sanity on robustness: modest noise should not blow up cost."""
        exact = run_online(
            small_trace, LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1), TABLE_II
        ).cost(0.4, 0.1).total_cost
        noisy = run_online(
            small_trace,
            LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1, estimator=NoisyOracle(0.3, seed=9)),
            TABLE_II,
        ).cost(0.4, 0.1).total_cost
        assert noisy < 1.5 * exact

    def test_bad_estimator_rejected(self, small_trace):
        class Broken:
            def estimate(self, task):
                return 0.0

            def observe(self, task, cycles):
                pass

        with pytest.raises(ValueError, match="non-positive"):
            run_online(
                small_trace[:10],
                LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1, estimator=Broken()),
                TABLE_II,
            )
