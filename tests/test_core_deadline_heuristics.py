"""Tests for the polynomial deadline heuristics."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.deadline import (
    DeadlineInstance,
    partition_to_deadline_multi_core,
    solve_deadline_single_core,
    verify_solution,
)
from repro.core.deadline_heuristics import (
    edf_rate_descent,
    lpt_feasibility_certificate,
    lpt_multi_core,
)
from repro.models.rates import RateTable, TABLE_II
from repro.models.task import Task


def inst(tasks, table=TABLE_II, budget=math.inf, cores=1):
    return DeadlineInstance(tasks=tuple(tasks), table=table,
                            energy_budget=budget, n_cores=cores)


class TestEDFRateDescent:
    def test_slack_means_slow_rates(self):
        tasks = [Task(cycles=10.0, deadline=1000.0)]
        sol = edf_rate_descent(inst(tasks))
        assert sol is not None
        assert sol.rates == (TABLE_II.min_rate,)
        assert verify_solution(inst(tasks), sol)

    def test_tight_deadline_forces_max(self):
        # 10 Gc in 3.3 s requires 3.0 GHz exactly
        tasks = [Task(cycles=10.0, deadline=3.3)]
        sol = edf_rate_descent(inst(tasks))
        assert sol is not None
        assert sol.rates == (3.0,)

    def test_infeasible_at_max_is_none(self):
        tasks = [Task(cycles=10.0, deadline=3.0)]
        assert edf_rate_descent(inst(tasks)) is None

    def test_respects_energy_budget(self):
        tasks = [Task(cycles=10.0, deadline=1000.0)]
        floor = 10.0 * TABLE_II.energy(1.6)
        assert edf_rate_descent(inst(tasks, budget=floor)) is not None
        assert edf_rate_descent(inst(tasks, budget=floor * 0.9)) is None

    def test_witness_always_valid(self):
        tasks = [
            Task(cycles=8.0, deadline=5.0),
            Task(cycles=20.0, deadline=30.0),
            Task(cycles=3.0, deadline=9.0),
        ]
        instance = inst(tasks)
        sol = edf_rate_descent(instance)
        assert sol is not None
        assert verify_solution(instance, sol)
        # EDF order
        deadlines = [t.deadline for t in sol.order]
        assert deadlines == sorted(deadlines)

    def test_multicore_instance_rejected(self):
        with pytest.raises(ValueError):
            edf_rate_descent(inst([Task(cycles=1.0, deadline=5.0)], cores=2))

    def test_never_claims_feasible_when_exact_says_no(self):
        """Heuristic soundness (one-sided): feasible output ⇒ truly feasible."""
        tasks = [
            Task(cycles=4.0, deadline=2.0),
            Task(cycles=4.0, deadline=4.0),
        ]
        instance = inst(tasks, table=RateTable([1.0, 2.0], [1.0, 4.0]),
                        budget=20.0)
        heur = edf_rate_descent(instance)
        exact = solve_deadline_single_core(instance)
        if heur is not None:
            assert exact is not None
            assert verify_solution(instance, heur)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.5, 10.0), st.floats(1.0, 40.0)),
                    min_size=1, max_size=5),
           st.floats(1.0, 5.0))
    @example(specs=[(1.0, 1.0), (1.0, 2.0), (10.0, 11.0)], slack=1.0)
    def test_heuristic_energy_within_exact_when_both_feasible(self, specs, slack):
        table = RateTable([1.0, 2.0], [1.0, 4.0])
        tasks = [Task(cycles=c, deadline=d) for c, d in specs]
        instance = inst(tasks, table=table, budget=math.inf)
        heur = edf_rate_descent(instance)
        exact = solve_deadline_single_core(instance)
        assert (heur is None) == (exact is None)  # budget = inf: both decide by time
        if heur is not None:
            assert verify_solution(instance, heur)
            assert exact is not None
            # no constant-factor bound: see test_two_rate_menu_has_no_factor_two_bound
            all_max = sum(c for c, _ in specs) * table.energy(table.max_rate)
            assert exact.total_energy <= heur.total_energy + 1e-9
            assert heur.total_energy <= all_max + 1e-9

    def test_two_rate_menu_has_no_factor_two_bound(self):
        """The greedy can land above twice the optimal energy.

        On a two-rate menu every step-down saves energy at the same rate
        per second of slack (here 3 J per Gcycle for 0.5 s per Gcycle,
        6 J/s), so the greedy slows tasks in EDF index order: both short
        tasks go slow and the long one must stay fast, 1 + 1 + 40 = 42 J.
        The optimum does the opposite, 4 + 4 + 10 = 18 J.
        """
        table = RateTable([1.0, 2.0], [1.0, 4.0])
        tasks = [Task(cycles=1.0, deadline=1.0), Task(cycles=1.0, deadline=2.0),
                 Task(cycles=10.0, deadline=11.0)]
        instance = inst(tasks, table=table)
        heur = edf_rate_descent(instance)
        exact = solve_deadline_single_core(instance)
        assert heur is not None and exact is not None
        assert heur.rates == (1.0, 1.0, 2.0)
        assert heur.total_energy == pytest.approx(42.0)
        assert exact.total_energy == pytest.approx(18.0)
        assert heur.total_energy > 2.0 * exact.total_energy


class TestLPTMultiCore:
    def test_balances_common_deadline(self):
        # 4 tasks × 3 Gc at max rate 3.0 → each ~1 s; two cores, deadline 2.2 s
        tasks = [Task(cycles=3.0, deadline=2.2) for _ in range(4)]
        sol = lpt_multi_core(inst(tasks, cores=2))
        assert sol is not None
        assert set(sol.cores) == {0, 1}
        assert verify_solution(inst(tasks, cores=2), sol)

    def test_uses_slack_for_energy(self):
        tasks = [Task(cycles=3.0, deadline=100.0) for _ in range(4)]
        sol = lpt_multi_core(inst(tasks, cores=2))
        assert sol is not None
        assert all(p == TABLE_II.min_rate for p in sol.rates)

    def test_infeasible_overload(self):
        tasks = [Task(cycles=30.0, deadline=5.0) for _ in range(4)]
        assert lpt_multi_core(inst(tasks, cores=2)) is None

    def test_empty_instance(self):
        sol = lpt_multi_core(inst([], cores=3))
        assert sol is not None
        assert sol.order == ()


class TestCertificate:
    def test_definitely_infeasible_single_task(self):
        tasks = [Task(cycles=100.0, deadline=1.0)]
        assert lpt_feasibility_certificate(inst(tasks, cores=4)) is False

    def test_definitely_infeasible_total_work(self):
        tasks = [Task(cycles=10.0, deadline=2.0) for _ in range(4)]
        # work at max = 4×3.33s = 13.3 > 2 cores × 2 s
        assert lpt_feasibility_certificate(inst(tasks, cores=2)) is False

    def test_definitely_feasible_with_headroom(self):
        tasks = [Task(cycles=3.0, deadline=50.0) for _ in range(6)]
        assert lpt_feasibility_certificate(inst(tasks, cores=2)) is True

    def test_certificate_consistent_with_exact(self):
        """True ⇒ exactly feasible, False ⇒ exactly infeasible (Theorem 2
        reduction instances, no energy constraint)."""
        from repro.core.deadline import solve_deadline_multi_core

        for values in ([2, 2, 2, 2], [5, 1], [3, 3, 2]):
            instance = partition_to_deadline_multi_core(values)
            cert = lpt_feasibility_certificate(instance)
            if cert is None:
                continue
            exact = solve_deadline_multi_core(instance)
            assert cert == (exact is not None)

    def test_mixed_deadlines_rejected(self):
        tasks = [Task(cycles=1.0, deadline=5.0), Task(cycles=1.0, deadline=6.0)]
        with pytest.raises(ValueError):
            lpt_feasibility_certificate(inst(tasks, cores=2))

    def test_empty_is_feasible(self):
        # no tasks: vacuously feasible, but requires a common deadline set;
        # an empty instance has no deadlines at all
        with pytest.raises(ValueError):
            lpt_feasibility_certificate(inst([], cores=2))
