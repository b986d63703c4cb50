"""Tests for the continuous-rate relaxation."""

import pytest
from hypothesis import given, settings, strategies as st

from strategies import cycle_lists
from repro.core.batch_single import schedule_single_core
from repro.core.continuous import ContinuousRelaxation
from repro.models.cost import CostModel
from repro.models.energy import PowerLawEnergy
from repro.models.task import Task


@pytest.fixture
def relax():
    return ContinuousRelaxation(PowerLawEnergy(coefficient=1.0, alpha=3.0), re=0.5, rt=2.0)


class TestClosedForm:
    def test_closed_form_equals_evaluated_optimum(self, relax):
        for kb in (1, 2, 5, 10, 100):
            star = relax.optimal_rate(kb)
            assert relax.optimal_positional_cost(kb) == pytest.approx(
                relax.positional_cost(kb, star), rel=1e-12
            )

    def test_optimum_is_a_minimum(self, relax):
        for kb in (1, 3, 17):
            star = relax.optimal_rate(kb)
            best = relax.positional_cost(kb, star)
            assert best <= relax.positional_cost(kb, star * 1.01)
            assert best <= relax.positional_cost(kb, star * 0.99)

    def test_rate_and_cost_increase_with_position(self, relax):
        rates = [relax.optimal_rate(k) for k in range(1, 30)]
        costs = [relax.optimal_positional_cost(k) for k in range(1, 30)]
        assert rates == sorted(rates)
        assert costs == sorted(costs)

    def test_validation(self, relax):
        with pytest.raises(ValueError):
            relax.optimal_rate(0)
        with pytest.raises(ValueError):
            relax.positional_cost(0, 1.0)
        with pytest.raises(ValueError):
            ContinuousRelaxation(PowerLawEnergy(), re=0.0, rt=1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1.5, 4.0), st.floats(0.05, 5.0), st.floats(0.05, 5.0),
           st.integers(1, 500))
    def test_closed_form_property(self, alpha, re, rt, kb):
        relax = ContinuousRelaxation(PowerLawEnergy(alpha=alpha), re=re, rt=rt)
        star = relax.optimal_rate(kb)
        assert relax.optimal_positional_cost(kb) == pytest.approx(
            relax.positional_cost(kb, star), rel=1e-9
        )


class TestScheduleAndBounds:
    def test_schedule_shortest_first(self, relax):
        tasks = [Task(cycles=c) for c in (30.0, 5.0, 12.0)]
        sched = relax.schedule(tasks)
        assert [p.task.cycles for p in sched.placements] == [5.0, 12.0, 30.0]
        assert [p.backward_position for p in sched.placements] == [3, 2, 1]
        # rates decrease along execution order (later = fewer behind = slower)
        assert sched.rates() == sorted(sched.rates(), reverse=True)

    def test_schedule_cost_equals_lower_bound(self, relax):
        tasks = [Task(cycles=c) for c in (7.0, 3.0, 11.0, 2.0)]
        assert relax.schedule(tasks).total_cost == pytest.approx(
            relax.lower_bound(tasks), rel=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(cycle_lists(1, 15))
    def test_lower_bound_below_any_discrete_schedule(self, cycles):
        """Fundamental: continuous optimum ≤ optimal discrete schedule."""
        power = PowerLawEnergy(coefficient=0.8, alpha=3.0)
        relax = ContinuousRelaxation(power, re=0.3, rt=1.1)
        tasks = [Task(cycles=c) for c in cycles]
        menu = power.discretize([0.5, 1.0, 2.0, 4.0])
        model = CostModel(menu, 0.3, 1.1)
        discrete = model.core_cost(schedule_single_core(tasks, model)).total_cost
        assert relax.lower_bound(tasks) <= discrete + 1e-9 * max(1.0, discrete)

    @settings(max_examples=40, deadline=None)
    @given(cycle_lists(1, 15))
    def test_neighbour_rounding_equals_dominating_ranges(self, cycles):
        """Convexity: per-position best menu neighbour == Algorithm 1's pick."""
        power = PowerLawEnergy(coefficient=0.8, alpha=3.0)
        relax = ContinuousRelaxation(power, re=0.3, rt=1.1)
        tasks = [Task(cycles=c) for c in cycles]
        rates = [0.5, 1.0, 2.0, 4.0]
        menu = power.discretize(rates)
        model = CostModel(menu, 0.3, 1.1)
        discrete = model.core_cost(schedule_single_core(tasks, model)).total_cost
        rounded = relax.neighbour_rounding_cost(tasks, rates)
        assert rounded == pytest.approx(discrete, rel=1e-9)

    def test_discretisation_loss_nonnegative_and_shrinks_with_menu(self, relax):
        tasks = [Task(cycles=c) for c in (1.0, 4.0, 9.0, 16.0, 25.0)]
        coarse = relax.discretisation_loss(tasks, [0.5, 4.0])
        fine = relax.discretisation_loss(
            tasks, [0.5 + 0.25 * i for i in range(15)]
        )
        assert coarse >= fine >= 0.0

    def test_empty_menu_rejected(self, relax):
        with pytest.raises(ValueError):
            relax.neighbour_rounding_cost([Task(cycles=1.0)], [])

    def test_empty_tasks(self, relax):
        assert relax.lower_bound([]) == 0.0
        assert len(relax.schedule([])) == 0
