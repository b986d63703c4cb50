"""Tests for the Least Marginal Cost policy object (Section IV)."""

import pytest

from repro.core.online_lmc import LeastMarginalCostPolicy
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II, rate_table_from_power_law
from repro.models.task import Task
from repro.verify.reference import choose_core_interactive


@pytest.fixture
def policy(online_model):
    return LeastMarginalCostPolicy([online_model] * 4)


class TestConstruction:
    def test_requires_cores(self):
        with pytest.raises(ValueError):
            LeastMarginalCostPolicy([])

    def test_requires_shared_pricing(self, online_model, table_ii):
        other = CostModel(table_ii, re=0.1, rt=0.1)
        with pytest.raises(ValueError, match="same Re and Rt"):
            LeastMarginalCostPolicy([online_model, other])


class TestInteractiveChoice:
    def test_homogeneous_reduces_to_least_delayed(self, policy):
        """Paper: 'if the cores are homogeneous, we simply choose the
        core with the least N_j'."""
        assert choose_core_interactive(policy.models, 1.0, [3, 1, 2, 5]) == 1
        assert choose_core_interactive(policy.models, 1.0, [0, 0, 0, 0]) == 0  # tie → lowest

    def test_heterogeneous_prefers_cheap_fast_core(self, online_model):
        expensive = CostModel(TABLE_II, 0.4, 0.1)
        cheap_table = rate_table_from_power_law(
            [1.0, 3.0], dynamic_coefficient=0.1, name="efficient"
        )
        cheap = CostModel(cheap_table, 0.4, 0.1)
        p = LeastMarginalCostPolicy([expensive, cheap])
        # same queue lengths: the energy-efficient core wins Eq. 27
        assert choose_core_interactive(p.models, 10.0, [0, 0]) == 1

    def test_wrong_count_rejected(self, policy):
        with pytest.raises(ValueError):
            choose_core_interactive(policy.models, 1.0, [0, 0])


class TestNonInteractiveChoice:
    def test_balances_queues(self, policy):
        # fill core 0's queue; a new task should go elsewhere
        for _ in range(5):
            policy.enqueue(0, 50.0)
        assert policy.choose_core_noninteractive(50.0) != 0

    def test_empty_cores_tie_to_lowest_index(self, policy):
        assert policy.choose_core_noninteractive(10.0) == 0

    def test_marginal_choice_is_actually_cheapest(self, policy):
        for core, loads in enumerate([(10.0, 20.0), (100.0,), (), (5.0, 5.0, 5.0)]):
            for L in loads:
                policy.enqueue(core, L)
        probe = 42.0
        chosen = policy.choose_core_noninteractive(probe)
        costs = [policy.queues[j].marginal_insert_cost(probe) for j in range(4)]
        assert costs[chosen] == pytest.approx(min(costs))


class TestQueueMechanics:
    def test_pop_head_is_shortest_with_positional_rate(self, policy):
        for L in (30.0, 10.0, 20.0):
            policy.enqueue(1, L, payload=f"t{L}")
        payload, cycles = policy.pop_head(1)
        assert cycles == 10.0
        assert payload == "t10.0"
        # three tasks were queued: the popped head runs at backward position 3
        assert policy.running_rate(1) == policy.ranges[1].rate_for(3)
        assert policy.waiting_count(1) == 2

    def test_pop_empty_returns_none(self, policy):
        assert policy.pop_head(2) is None

    def test_remove_cancels_queued_task(self, policy):
        node = policy.enqueue(0, 15.0)
        policy.enqueue(0, 25.0)
        policy.remove(0, node)
        assert policy.waiting_count(0) == 1
        payload, cycles = policy.pop_head(0)
        assert cycles == 25.0

    def test_running_rate_tracks_queue_depth(self, policy, online_model):
        # empty queue → running task is backward position 1
        assert policy.running_rate(0) == policy.ranges[0].rate_for(1)
        for i in range(40):
            policy.enqueue(0, float(i + 1))
        assert policy.running_rate(0) == policy.ranges[0].rate_for(41)

    def test_running_rate_at_each_range_end(self, policy):
        """With ``d`` tasks waiting the running task sits at backward
        position ``d + 1``. Probing either side of every range boundary
        makes an off-by-one in the depth read a neighbouring range's rate."""
        ranges = policy.ranges[0]
        bounded = [r for r in ranges if r.hi is not None]
        assert len(bounded) >= 2
        for r in bounded:
            for depth, want in ((r.hi - 2, r.rate), (r.hi - 1, ranges.rate_for(r.hi))):
                while policy.waiting_count(0) < depth:
                    policy.enqueue(0, 1.0)
                assert policy.running_rate(0) == want

    def test_interactive_rate_is_max(self, policy):
        assert policy.interactive_rate(0) == TABLE_II.max_rate

    def test_head_delays_bias_away_from_busy_core(self, policy):
        # identical (empty) queues: a large head delay on core 0 diverts
        assert policy.choose_core_noninteractive(10.0, [50.0, 0.0, 0.0, 0.0]) == 1
        # without head delays the tie goes to core 0
        assert policy.choose_core_noninteractive(10.0) == 0

    def test_head_delays_length_validated(self, policy):
        with pytest.raises(ValueError, match="one entry per core"):
            policy.choose_core_noninteractive(10.0, [1.0])

    def test_queued_cost_aggregates(self, policy):
        assert policy.total_queued_cost() == 0.0
        policy.enqueue(0, 10.0)
        policy.enqueue(3, 20.0)
        assert policy.total_queued_cost() == pytest.approx(
            policy.queued_cost(0) + policy.queued_cost(3)
        )
        assert policy.queued_cost(1) == 0.0
