"""Tests for Algorithm 1 — dominating position ranges."""

import pytest
from hypothesis import given, settings, strategies as st

from strategies import cost_models
from repro.core.dominating import (
    DominatingRange,
    DominatingRanges,
    brute_force_ranges,
    _integer_crossover,
)
from repro.models.cost import CostModel
from repro.models.rates import RateTable, TABLE_II


class TestDominatingRange:
    def test_membership(self):
        r = DominatingRange(rate=2.0, lo=3, hi=7)
        assert 3 in r and 6 in r
        assert 2 not in r and 7 not in r
        assert len(r) == 4

    def test_unbounded(self):
        r = DominatingRange(rate=3.0, lo=5, hi=None)
        assert 5 in r and 10**9 in r
        assert 4 not in r
        with pytest.raises(ValueError):
            len(r)

    def test_clipped(self):
        r = DominatingRange(rate=2.0, lo=3, hi=7)
        assert list(r.clipped(5)) == [3, 4, 5]
        assert list(r.clipped(2)) == []
        unbounded = DominatingRange(rate=3.0, lo=5, hi=None)
        assert list(unbounded.clipped(8)) == [5, 6, 7, 8]


class TestTableII:
    def test_paper_parameters_partition(self, batch_model):
        """With Re=0.1, Rt=0.4 all five Table II rates are effective."""
        dr = DominatingRanges.from_cost_model(batch_model)
        assert dr.effective_rates == [1.6, 2.0, 2.4, 2.8, 3.0]
        assert [(r.lo, r.hi) for r in dr] == [(1, 2), (2, 3), (3, 5), (5, 10), (10, None)]

    def test_online_pricing_partition(self, online_model):
        """With Re=0.4, Rt=0.1 the crossovers sit far out (energy-heavy)."""
        dr = DominatingRanges.from_cost_model(online_model)
        assert dr.rate_for(1) == 1.6
        # crossover 1.6→2.0 at Re(E2−E1)/(Rt(T1−T2)) = 0.338/0.0125 ≈ 27.04
        assert dr.rate_for(27) == 1.6
        assert dr.rate_for(28) == 2.0
        assert dr.effective_rates[-1] == 3.0

    def test_rate_lookup_monotone(self, batch_model):
        dr = DominatingRanges.from_cost_model(batch_model)
        rates = [dr.rate_for(k) for k in range(1, 100)]
        assert rates == sorted(rates)

    def test_cost_query_matches_model(self, batch_model):
        dr = DominatingRanges.from_cost_model(batch_model)
        for kb in range(1, 50):
            rate, cost = dr.rate_and_cost(kb)
            assert cost == pytest.approx(batch_model.backward_position_cost(kb, rate))
            assert cost == pytest.approx(batch_model.best_backward_cost(kb))

    def test_invalid_position_rejected(self, batch_model):
        dr = DominatingRanges.from_cost_model(batch_model)
        with pytest.raises(ValueError):
            dr.rate_for(0)


class TestDominatedRates:
    def test_never_optimal_rate_is_dropped(self):
        # middle rate strictly dominated: barely faster, much more energy
        table = RateTable(
            rates=[1.0, 2.0, 3.0],
            energy_per_cycle=[1.0, 99.0, 100.0],
            time_per_cycle=[2.0, 1.0, 0.9],
        )
        model = CostModel(table, re=1.0, rt=1.0)
        dr = DominatingRanges.from_cost_model(model)
        assert 2.0 not in dr.effective_rates
        assert dr.effective_rates == [1.0, 3.0]
        # and brute force agrees it never wins
        assert 2.0 not in set(brute_force_ranges(model, 500))

    def test_single_rate_table(self):
        table = RateTable([2.0], [1.0])
        model = CostModel(table, re=1.0, rt=1.0)
        dr = DominatingRanges.from_cost_model(model)
        assert dr.effective_rates == [2.0]
        assert dr.rate_for(1) == 2.0
        assert dr.rate_for(10**6) == 2.0

    def test_low_rate_with_empty_integer_range(self):
        # crossover below position 1: the slow rate never dominates any
        # natural position even though it is on the hull
        table = RateTable([1.0, 2.0], [1.0, 1.1], [1.0, 0.5])
        model = CostModel(table, re=0.01, rt=10.0)  # time extremely expensive
        dr = DominatingRanges.from_cost_model(model)
        assert dr.effective_rates == [2.0]


class TestTieBreaking:
    def test_exact_integer_crossover_goes_to_higher_rate(self):
        # engineered tie at kb = 4: Re(E2-E1)/(Rt(T1-T2)) = 4
        table = RateTable([1.0, 2.0], [1.0, 3.0], [1.0, 0.5])
        model = CostModel(table, re=1.0, rt=1.0)
        dr = DominatingRanges.from_cost_model(model)
        assert dr.rate_for(3) == 1.0
        assert dr.rate_for(4) == 2.0  # the tie position
        # and the chosen rate matches the model's own tie rule
        assert model.best_rate_backward(4)[0] == 2.0

    def test_integer_crossover_helper(self):
        assert _integer_crossover(4.0, 1.0) == 4  # exact tie
        assert _integer_crossover(4.0 + 1e-13, 1.0) == 4  # float noise absorbed
        assert _integer_crossover(4.1, 1.0) == 5
        assert _integer_crossover(-3.0, 1.0) == 1  # clamps to first position
        with pytest.raises(ValueError):
            _integer_crossover(1.0, 0.0)

    def test_wins_at_predicate_rejects_generous_window(self):
        # inside the near-integer window, a predicate saying "the faster
        # rate does NOT win at k" must push the boundary to k + 1
        assert _integer_crossover(10.0, 2.0) == 5
        assert _integer_crossover(10.0, 2.0, wins_at=lambda k: True) == 5
        assert _integer_crossover(10.0, 2.0, wins_at=lambda k: False) == 6

    def test_large_fractional_crossover_not_misread_as_tie(self):
        # found by: python -m repro fuzz (dominating check). The crossover
        # is k* = 100000.0001 — genuinely fractional, so position 100000
        # belongs to the SLOWER rate. A relative tie window (eps·k*) is
        # ~1e-5 wide here and used to swallow the fractional part, handing
        # 100000 to the faster rate against the per-position argmin.
        table = RateTable([1.0, 2.0], [1.0, 50001.00005], [1.0, 0.5])
        model = CostModel(table, re=1.0, rt=1.0)
        dr = DominatingRanges.from_cost_model(model)
        for kb in (99999, 100000, 100001):
            assert dr.rate_for(kb) == model.best_rate_backward(kb)[0], kb
        assert dr.rate_for(100000) == 1.0
        assert dr.rate_for(100001) == 2.0

    def test_large_exact_tie_goes_to_higher_rate(self):
        # same construction with the fractional part removed: an exact tie
        # at kb = 100000 must follow the <= tie rule (faster rate wins)
        table = RateTable([1.0, 2.0], [1.0, 50001.0], [1.0, 0.5])
        model = CostModel(table, re=1.0, rt=1.0)
        dr = DominatingRanges.from_cost_model(model)
        assert dr.rate_for(99999) == 1.0
        assert dr.rate_for(100000) == 2.0
        assert model.best_rate_backward(100000)[0] == 2.0

    def test_dyadic_exact_crossovers_match_brute_force(self):
        # dyadic-rational tables make every pairwise crossover exactly
        # representable, so each boundary position is a true == tie
        table = RateTable([1.0, 2.0, 4.0], [0.5, 1.0, 3.0], [1.0, 0.5, 0.25])
        model = CostModel(table, re=1.0, rt=1.0)
        dr = DominatingRanges.from_cost_model(model)
        expected = brute_force_ranges(model, 64)
        assert [dr.rate_for(k) for k in range(1, 65)] == expected


class TestStructuralInvariants:
    def test_constructor_rejects_gaps(self, batch_model):
        with pytest.raises(ValueError, match="tile"):
            DominatingRanges(
                batch_model,
                [
                    DominatingRange(1.6, 1, 3),
                    DominatingRange(3.0, 5, None),  # gap at 3-4
                ],
            )

    def test_constructor_rejects_bounded_tail(self, batch_model):
        with pytest.raises(ValueError, match="unbounded"):
            DominatingRanges(batch_model, [DominatingRange(1.6, 1, 5)])

    def test_constructor_rejects_wrong_start(self, batch_model):
        with pytest.raises(ValueError, match="position 1"):
            DominatingRanges(batch_model, [DominatingRange(1.6, 2, None)])

    @pytest.mark.parametrize("middle_hi", [3, 2], ids=["empty", "reversed"])
    def test_constructor_rejects_empty_or_reversed_range(self, batch_model, middle_hi):
        # tiles and ascends, but [3, middle_hi) holds no position; the
        # dynamic index would then price a queue with the wrong rates
        with pytest.raises(ValueError, match="non-empty"):
            DominatingRanges(
                batch_model,
                [
                    DominatingRange(1.6, 1, 3),
                    DominatingRange(2.0, 3, middle_hi),
                    DominatingRange(2.4, middle_hi, None),
                ],
            )


class TestAgainstBruteForce:
    """Algorithm 1's entire contract: agree with the per-position argmin."""

    @settings(max_examples=120, deadline=None)
    @given(cost_models(min_rates=1, max_rates=8))
    def test_matches_brute_force_everywhere(self, model):
        dr = DominatingRanges.from_cost_model(model)
        expected = brute_force_ranges(model, 120)
        actual = [dr.rate_for(k) for k in range(1, 121)]
        assert actual == expected

    @settings(max_examples=60, deadline=None)
    @given(cost_models(min_rates=2, max_rates=6))
    def test_ranges_partition_naturals(self, model):
        dr = DominatingRanges.from_cost_model(model)
        ranges = list(dr)
        assert ranges[0].lo == 1
        for a, b in zip(ranges, ranges[1:]):
            assert a.hi == b.lo
            assert a.rate < b.rate
        assert ranges[-1].hi is None

    @settings(max_examples=60, deadline=None)
    @given(cost_models(min_rates=1, max_rates=6), st.integers(1, 10_000))
    def test_cost_agrees_with_direct_min(self, model, kb):
        dr = DominatingRanges.from_cost_model(model)
        assert dr.cost(kb) == pytest.approx(model.best_backward_cost(kb), rel=1e-9)


def test_theta_p_construction_size(batch_model):
    """The hull pass touches each rate O(1) times — spot-check via a big table."""
    rates = [1.0 + 0.01 * i for i in range(300)]
    table = RateTable(rates, [0.5 * p * p for p in rates])
    model = CostModel(table, re=0.1, rt=0.4)
    dr = DominatingRanges.from_cost_model(model)
    # ranges are sane and ordered even at |P| = 300
    assert dr.effective_rates == sorted(dr.effective_rates)
    assert [dr.rate_for(k) for k in (1, 10, 100, 1000)] == sorted(
        dr.rate_for(k) for k in (1, 10, 100, 1000)
    )
