"""Tests for energy-budget flow-time scheduling (Lagrangian sweep)."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from strategies import cycle_lists
from repro.core.budget import (
    min_energy,
    pareto_frontier,
    schedule_with_energy_budget,
)
from repro.models.rates import RateTable, TABLE_II
from repro.models.task import Task


def brute_force_min_flow(tasks, table, budget):
    """Exact minimum flow time within budget (tiny instances only)."""
    best = math.inf
    for perm in itertools.permutations(tasks):
        for rates in itertools.product(table.rates, repeat=len(perm)):
            clock = 0.0
            flow = 0.0
            energy = 0.0
            for t, p in zip(perm, rates):
                clock += t.cycles * table.time(p)
                flow += clock
                energy += t.cycles * table.energy(p)
            if energy <= budget + 1e-9:
                best = min(best, flow)
    return best


class TestBasics:
    def test_generous_budget_runs_at_max(self):
        tasks = [Task(cycles=10.0), Task(cycles=5.0)]
        sol = schedule_with_energy_budget(tasks, TABLE_II, budget=1e9)
        assert sol is not None
        assert all(pl.rate == TABLE_II.max_rate for pl in sol.schedule)

    def test_impossible_budget_is_none(self):
        tasks = [Task(cycles=10.0)]
        floor = min_energy(tasks, TABLE_II)
        assert schedule_with_energy_budget(tasks, TABLE_II, budget=floor * 0.99) is None

    def test_exact_floor_budget_runs_at_min(self):
        tasks = [Task(cycles=10.0), Task(cycles=3.0)]
        floor = min_energy(tasks, TABLE_II)
        sol = schedule_with_energy_budget(tasks, TABLE_II, budget=floor)
        assert sol is not None
        assert all(pl.rate == TABLE_II.min_rate for pl in sol.schedule)
        assert sol.energy == pytest.approx(floor)

    def test_budget_always_respected(self):
        tasks = [Task(cycles=c) for c in (20.0, 7.0, 13.0)]
        for budget in (150.0, 200.0, 250.0, 300.0):
            sol = schedule_with_energy_budget(tasks, TABLE_II, budget)
            if sol is not None:
                assert sol.energy <= budget + 1e-6

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            schedule_with_energy_budget([Task(cycles=1.0)], TABLE_II, budget=-1.0)

    def test_empty_tasks(self):
        sol = schedule_with_energy_budget([], TABLE_II, budget=0.0)
        assert sol is not None
        assert sol.flow_time == 0.0


class TestTightness:
    def test_flow_decreases_with_budget(self):
        tasks = [Task(cycles=c) for c in (25.0, 10.0, 40.0, 5.0)]
        floor = min_energy(tasks, TABLE_II)
        flows = []
        for mult in (1.0, 1.2, 1.5, 2.0, 2.2):
            sol = schedule_with_energy_budget(tasks, TABLE_II, budget=floor * mult)
            assert sol is not None
            flows.append(sol.flow_time)
        assert flows == sorted(flows, reverse=True) or flows[0] >= flows[-1]

    def test_matches_brute_force_on_hull_points(self):
        """On a two-rate menu the frontier is a staircase; the Lagrangian
        search must return hull-optimal flow at hull budgets."""
        table = RateTable([1.0, 2.0], [1.0, 4.0])
        tasks = [Task(cycles=2.0), Task(cycles=3.0)]
        # hull budgets: all-slow (5), mixed, all-fast (20)
        for budget in (5.0, 20.0, 12.0, 17.0):
            sol = schedule_with_energy_budget(tasks, table, budget)
            exact = brute_force_min_flow(tasks, table, budget)
            if sol is None:
                assert math.isinf(exact)
            else:
                # Lagrangian point is within the hull gap of the exact optimum
                assert sol.flow_time >= exact - 1e-9
                assert sol.energy <= budget + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(cycle_lists(1, 3), st.floats(1.0, 3.0))
    def test_never_beats_brute_force_nor_violates(self, cycles, slack):
        table = RateTable([1.0, 2.0], [1.0, 4.0])
        tasks = [Task(cycles=c) for c in cycles]
        budget = min_energy(tasks, table) * slack
        sol = schedule_with_energy_budget(tasks, table, budget)
        assert sol is not None  # budget ≥ floor is always feasible
        exact = brute_force_min_flow(tasks, table, budget)
        assert sol.flow_time >= exact - 1e-9 * max(1.0, exact)
        assert sol.energy <= budget + 1e-6


class TestParetoFrontier:
    def test_frontier_monotone(self):
        tasks = [Task(cycles=c) for c in (30.0, 12.0, 4.0, 50.0)]
        frontier = pareto_frontier(tasks, TABLE_II, points=30)
        assert len(frontier) >= 2
        energies = [e for e, _ in frontier]
        flows = [f for _, f in frontier]
        assert energies == sorted(energies, reverse=True)
        assert flows == sorted(flows)

    def test_frontier_endpoints(self):
        tasks = [Task(cycles=c) for c in (30.0, 12.0)]
        frontier = pareto_frontier(tasks, TABLE_II, points=30)
        total = sum(t.cycles for t in tasks)
        # extremes: all-max energy down to all-min energy
        assert frontier[0][0] == pytest.approx(total * TABLE_II.energy(3.0))
        assert frontier[-1][0] == pytest.approx(total * TABLE_II.energy(1.6))

    def test_point_count_validation(self):
        with pytest.raises(ValueError):
            pareto_frontier([Task(cycles=1.0)], TABLE_II, points=1)
