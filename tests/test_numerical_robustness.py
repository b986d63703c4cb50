"""Numerical robustness at extreme parameter magnitudes.

Pricing constants, cycle counts, and queue depths can span many orders
of magnitude in real deployments; the algorithms must stay consistent
with their brute-force specifications across that range, not just at
the paper's comfortable values.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dominating import DominatingRanges, brute_force_ranges
from repro.core.dynamic import DynamicCostIndex, NaiveCostIndex
from repro.models.cost import CostModel
from repro.models.rates import RateTable, TABLE_II


class TestExtremePricing:
    @pytest.mark.parametrize("re,rt", [
        (1e-8, 1e8), (1e8, 1e-8), (1e-8, 1e-8), (1e8, 1e8), (1.0, 1e-12),
    ])
    def test_dominating_ranges_match_brute_force(self, re, rt):
        model = CostModel(TABLE_II, re, rt)
        dr = DominatingRanges.from_cost_model(model)
        expected = brute_force_ranges(model, 64)
        assert [dr.rate_for(k) for k in range(1, 65)] == expected

    def test_time_dominant_pricing_selects_max_everywhere(self):
        model = CostModel(TABLE_II, 1e-9, 1e9)
        dr = DominatingRanges.from_cost_model(model)
        assert dr.rate_for(1) == TABLE_II.max_rate

    def test_energy_dominant_pricing_selects_min_for_long_stretch(self):
        model = CostModel(TABLE_II, 1e9, 1e-9)
        dr = DominatingRanges.from_cost_model(model)
        assert dr.rate_for(1) == TABLE_II.min_rate
        assert dr.rate_for(10**6) == TABLE_II.min_rate

    def test_huge_backward_positions(self):
        model = CostModel(TABLE_II, 0.1, 0.4)
        dr = DominatingRanges.from_cost_model(model)
        rate, cost = dr.rate_and_cost(10**12)
        assert rate == TABLE_II.max_rate
        assert cost == pytest.approx(model.best_backward_cost(10**12), rel=1e-12)


class TestExtremeCycleCounts:
    def test_dynamic_index_with_wide_magnitude_mix(self):
        model = CostModel(TABLE_II, 0.4, 0.1)
        idx = DynamicCostIndex(model)
        naive = NaiveCostIndex(model)
        values = [1e-6, 1e6, 3.0, 1e-3, 1e3, 7e5, 2e-5]
        nodes = []
        for v in values:
            nodes.append(idx.insert(v))
            naive.insert(v)
            assert idx.total_cost == pytest.approx(naive.total_cost, rel=1e-9)
        for node, v in zip(nodes[::2], values[::2]):
            idx.delete(node)
            naive.delete(v)
            assert idx.total_cost == pytest.approx(naive.total_cost, rel=1e-9)
        idx.check_invariants()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.floats(1e-9, 1e9, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=20,
    ))
    def test_vectorized_stable_across_magnitudes(self, cycles):
        from repro.core.batch_single import schedule_cost_lower_bound
        from repro.models.task import Task
        from repro.core.dominating import DominatingRanges
        from repro.models.vectorized import wbg_optimal_cost

        model = CostModel(TABLE_II, 0.1, 0.4)
        cycles = [max(c, 1e-9) for c in cycles]
        tasks = [Task(cycles=c) for c in cycles]
        ranges = DominatingRanges.from_cost_model(model)
        assert wbg_optimal_cost([ranges], cycles) == pytest.approx(
            schedule_cost_lower_bound(tasks, model), rel=1e-9
        )


class TestNearDegenerateTables:
    def test_nearly_identical_rates(self):
        # two rates separated by 1e-5 GHz: the hull pass must not produce
        # inverted or overlapping ranges
        table = RateTable([1.0, 1.00001], [1.0, 1.0000001])
        model = CostModel(table, 1.0, 1.0)
        dr = DominatingRanges.from_cost_model(model)
        expected = brute_force_ranges(model, 50)
        assert [dr.rate_for(k) for k in range(1, 51)] == expected

    def test_tiny_energy_differences(self):
        table = RateTable([1.0, 2.0, 3.0], [1.0, 1.0 + 1e-9, 1.0 + 2e-9])
        model = CostModel(table, 1.0, 1.0)
        dr = DominatingRanges.from_cost_model(model)
        # energy is essentially free to raise: the top rate wins everywhere
        assert dr.rate_for(1) == 3.0

    def test_steep_energy_cliff(self):
        table = RateTable([1.0, 1.1], [1.0, 1e9])
        model = CostModel(table, 1.0, 1.0)
        dr = DominatingRanges.from_cost_model(model)
        expected = brute_force_ranges(model, 50)
        assert [dr.rate_for(k) for k in range(1, 51)] == expected
        assert dr.rate_for(1) == 1.0  # the cliff rate needs an enormous queue
