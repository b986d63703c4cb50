"""Tests for the cost model (Equations 3-13, 20, 27)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from strategies import cost_models, cycle_lists
from repro.models.cost import CoreSchedule, CostModel, Placement, ScheduleCost, ZERO_COST
from repro.models.rates import TABLE_II, rate_table_from_power_law
from repro.models.task import Task


def random_schedule(model: CostModel, cycles: list[float], seed: int = 0) -> CoreSchedule:
    rng = random.Random(seed)
    return CoreSchedule(
        Placement(task=Task(cycles=c), rate=rng.choice(model.table.rates)) for c in cycles
    )


class TestPositionalCosts:
    def test_equation_12_by_hand(self, batch_model):
        # C(k, p) = Re·E(p) + (n-k+1)·Rt·T(p); Re=0.1, Rt=0.4
        # k=1 of n=3 at p=1.6: 0.1·3.375 + 3·0.4·0.625 = 0.3375 + 0.75
        assert batch_model.position_cost(1, 3, 1.6) == pytest.approx(1.0875)
        # k=3 (last): 0.3375 + 1·0.4·0.625
        assert batch_model.position_cost(3, 3, 1.6) == pytest.approx(0.5875)

    def test_equation_20_backward_equals_forward(self, batch_model):
        for n in (1, 2, 5, 9):
            for k in range(1, n + 1):
                for p in TABLE_II.rates:
                    assert batch_model.position_cost(k, n, p) == pytest.approx(
                        batch_model.backward_position_cost(n - k + 1, p)
                    )

    def test_position_bounds_validated(self, batch_model):
        with pytest.raises(ValueError):
            batch_model.position_cost(0, 3, 1.6)
        with pytest.raises(ValueError):
            batch_model.position_cost(4, 3, 1.6)
        with pytest.raises(ValueError):
            batch_model.backward_position_cost(0, 1.6)

    def test_best_rate_tie_goes_to_higher(self):
        # two rates engineered to tie exactly at kb = 1:
        # Re(E2-E1) = Rt(T1-T2) => kb* = 1
        from repro.models.rates import RateTable

        table = RateTable([1.0, 2.0], [1.0, 2.0], [1.0, 0.5])
        m = CostModel(table, re=1.0, rt=2.0)
        # CB(1, p1) = 1 + 2·1·1 = 3 ; CB(1, p2) = 2 + 2·1·0.5 = 3 — a tie
        rate, cost = m.best_rate_backward(1)
        assert rate == 2.0
        assert cost == pytest.approx(3.0)

    def test_lemma_2_min_cost_decreasing_forward(self, batch_model):
        # CB*(k) increases in backward position <=> C*(k) decreases forward
        costs = [batch_model.best_backward_cost(kb) for kb in range(1, 40)]
        assert all(a < b for a, b in zip(costs, costs[1:]))

    @given(cost_models(min_rates=1, max_rates=6), st.integers(1, 200))
    def test_best_rate_is_argmin(self, model, kb):
        rate, cost = model.best_rate_backward(kb)
        assert rate in model.table
        for p in model.table.rates:
            assert cost <= model.backward_position_cost(kb, p) + 1e-12 * abs(cost)


class TestScheduleEvaluation:
    def test_single_task_by_hand(self, batch_model):
        sched = CoreSchedule([Placement(task=Task(cycles=10.0), rate=2.0)])
        c = batch_model.core_cost(sched)
        # energy: 0.1 · 10 · 4.22 = 4.22 ; time: 0.4 · 10 · 0.5 = 2.0
        assert c.energy_cost == pytest.approx(4.22)
        assert c.temporal_cost == pytest.approx(2.0)
        assert c.total_cost == pytest.approx(6.22)
        assert c.makespan == pytest.approx(5.0)
        assert c.task_count == 1

    def test_waiting_accumulates(self, batch_model):
        t1, t2 = Task(cycles=10.0), Task(cycles=10.0)
        sched = CoreSchedule([Placement(t1, 2.0), Placement(t2, 2.0)])
        c = batch_model.core_cost(sched)
        # turnarounds: 5 and 10 seconds
        assert c.turnaround_sum == pytest.approx(15.0)
        assert c.mean_turnaround == pytest.approx(7.5)

    def test_empty_schedule_is_zero(self, batch_model):
        c = batch_model.core_cost(CoreSchedule([]))
        assert c.total_cost == 0.0
        assert c.task_count == 0
        assert c.mean_turnaround == 0.0

    def test_schedule_cost_sums_cores_and_maxes_makespan(self, batch_model):
        s1 = CoreSchedule([Placement(Task(cycles=10.0), 2.0)], core_index=0)
        s2 = CoreSchedule([Placement(Task(cycles=40.0), 2.0)], core_index=1)
        total = batch_model.schedule_cost([s1, s2])
        assert total.task_count == 2
        assert total.makespan == pytest.approx(20.0)
        assert total.total_cost == pytest.approx(
            batch_model.core_cost(s1).total_cost + batch_model.core_cost(s2).total_cost
        )

    def test_zero_cost_identity(self):
        c = ScheduleCost(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7)
        s = ZERO_COST + c
        assert s.total_cost == pytest.approx(c.total_cost)
        assert s.makespan == c.makespan

    @settings(max_examples=60)
    @given(cost_models(min_rates=1, max_rates=5), cycle_lists(0, 15), st.integers(0, 10_000))
    def test_equation_8_equals_equation_13(self, model, cycles, seed):
        """The paper's pivotal rewrite: direct evaluation == positional form."""
        sched = random_schedule(model, cycles, seed)
        direct = model.core_cost(sched).total_cost
        positional = model.core_cost_positional(sched)
        assert direct == pytest.approx(positional, rel=1e-9, abs=1e-9)


class TestInteractiveMarginalCost:
    def test_equation_27_by_hand(self, online_model):
        # pm = 3.0: Re·L·E + Rt·L·T + Rt·L·T·N with Re=0.4, Rt=0.1
        L, N = 10.0, 3
        expected = 0.4 * L * 7.1 + 0.1 * L * 0.33 + 0.1 * L * 0.33 * N
        assert online_model.interactive_marginal_cost(L, N) == pytest.approx(expected)

    def test_validation(self, online_model):
        with pytest.raises(ValueError):
            online_model.interactive_marginal_cost(0.0, 1)
        with pytest.raises(ValueError):
            online_model.interactive_marginal_cost(1.0, -1)

    @settings(max_examples=200)
    @given(
        table=st.sampled_from([
            TABLE_II,
            rate_table_from_power_law([0.6, 0.9, 1.2, 1.5], dynamic_coefficient=0.25,
                                      static_power=0.1),
        ]),
        re=st.floats(1e-3, 10.0),
        rt=st.floats(1e-3, 10.0),
        cycles=st.floats(1e-6, 1e4),
        n=st.integers(0, 10_000),
    )
    def test_reads_pm_row_bit_for_bit(self, table, re, rt, cycles, n):
        """E(pm)/T(pm) read as the table's last entries price exactly as
        the by-rate lookups do."""
        pm = table.max_rate
        own = re * cycles * table.energy(pm) + rt * cycles * table.time(pm)
        inflicted = rt * cycles * table.time(pm) * n
        assert CostModel(table, re, rt).interactive_marginal_cost(cycles, n) == own + inflicted

    @given(st.floats(0.01, 1e4), st.integers(0, 100))
    def test_monotone_in_queue_length(self, cycles, n):
        m = CostModel(TABLE_II, 0.4, 0.1)
        assert m.interactive_marginal_cost(cycles, n + 1) > m.interactive_marginal_cost(cycles, n)


class TestCostModelValidation:
    def test_rejects_nonpositive_prices(self):
        with pytest.raises(ValueError):
            CostModel(TABLE_II, re=0.0, rt=0.4)
        with pytest.raises(ValueError):
            CostModel(TABLE_II, re=0.1, rt=-0.4)

    @pytest.mark.parametrize("re, rt, name", [
        (math.nan, 0.4, "Re"), (math.inf, 0.4, "Re"),
        (0.1, math.nan, "Rt"), (0.1, math.inf, "Rt"),
    ])
    def test_rejects_non_finite_prices(self, re, rt, name):
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            CostModel(TABLE_II, re=re, rt=rt)
