"""Tests for the processing-rate model (Section II-B)."""

import math

import pytest
from hypothesis import given

from strategies import rate_tables
from repro.models.rates import (
    EXYNOS_4412,
    I7_950,
    RateTable,
    TABLE_II,
    TABLE_II_VERIFICATION,
    rate_table_from_power_law,
)


class TestRateTableValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RateTable([], [])

    def test_rejects_misaligned_lengths(self):
        with pytest.raises(ValueError):
            RateTable([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            RateTable([1.0], [1.0], [0.5, 1.0])

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            RateTable([0.0, 1.0], [1.0, 2.0])

    def test_rejects_duplicate_rates(self):
        with pytest.raises(ValueError):
            RateTable([1.0, 1.0], [1.0, 2.0])

    def test_rejects_nonincreasing_energy(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            RateTable([1.0, 2.0], [2.0, 2.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            RateTable([1.0, 2.0], [2.0, 1.0])

    def test_rejects_nondecreasing_time(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            RateTable([1.0, 2.0], [1.0, 2.0], [0.5, 0.5])

    @pytest.mark.parametrize("args", [
        ([1.0, math.nan], [1.0, 2.0]),
        ([1.0, math.inf], [1.0, 2.0]),
        ([1.0, 2.0], [math.nan, 1.0]),
        ([1.0, 2.0], [1.0, math.inf]),
        ([1.0, 2.0], [1.0, 2.0], [math.nan, 0.5]),
        ([1.0, 2.0], [1.0, 2.0], [math.inf, 0.5]),
    ], ids=["nan-rate", "inf-rate", "nan-E", "inf-E", "nan-T", "inf-T"])
    def test_rejects_non_finite(self, args):
        with pytest.raises(ValueError, match="must be finite"):
            RateTable(*args)

    def test_sorts_inputs(self):
        t = RateTable([2.0, 1.0], [4.0, 1.0])
        assert t.rates == (1.0, 2.0)
        assert t.energy_per_cycle == (1.0, 4.0)

    def test_default_time_is_reciprocal(self):
        t = RateTable([2.0, 4.0], [1.0, 3.0])
        assert t.time(2.0) == pytest.approx(0.5)
        assert t.time(4.0) == pytest.approx(0.25)


class TestRateTableQueries:
    def test_lookups(self):
        assert TABLE_II.energy(1.6) == 3.375
        assert TABLE_II.time(3.0) == 0.33
        assert TABLE_II.min_rate == 1.6
        assert TABLE_II.max_rate == 3.0
        assert len(TABLE_II) == 5
        assert 2.4 in TABLE_II
        assert 2.5 not in TABLE_II

    def test_index_of_missing_rate_raises(self):
        with pytest.raises(KeyError):
            TABLE_II.index_of(1.7)

    def test_power_is_energy_over_time(self):
        # E(p)/T(p): joules per cycle over seconds per cycle = watts
        assert TABLE_II.power(1.6) == pytest.approx(3.375 / 0.625)
        assert TABLE_II.power(3.0) == pytest.approx(7.1 / 0.33)

    def test_step_up_down(self):
        assert TABLE_II.step_down(2.4) == 2.0
        assert TABLE_II.step_up(2.4) == 2.8
        assert TABLE_II.step_down(1.6) == 1.6  # clamps at bottom
        assert TABLE_II.step_up(3.0) == 3.0  # clamps at top

    def test_items_ascending(self):
        triples = TABLE_II.items()
        assert [p for p, _, _ in triples] == sorted(p for p, _, _ in triples)


class TestRestriction:
    def test_lower_half_matches_paper(self):
        # Section V-A3: Power Saving limited to 1.6, 2.0, 2.4 GHz
        low = TABLE_II.lower_half()
        assert low.rates == (1.6, 2.0, 2.4)
        assert low.max_rate == 2.4

    def test_restrict_keeps_subset(self):
        sub = TABLE_II.restrict(lambda p: p >= 2.4)
        assert sub.rates == (2.4, 2.8, 3.0)

    def test_restrict_to_nothing_raises(self):
        with pytest.raises(ValueError):
            TABLE_II.restrict(lambda p: p > 100)

    def test_single_rate_lower_half_is_itself(self):
        t = RateTable([1.0], [1.0])
        assert t.lower_half().rates == (1.0,)


class TestPresets:
    def test_table_ii_matches_paper(self):
        assert TABLE_II.rates == (1.6, 2.0, 2.4, 2.8, 3.0)
        assert TABLE_II.energy_per_cycle == (3.375, 4.22, 5.0, 6.0, 7.1)
        assert TABLE_II.time_per_cycle == (0.625, 0.5, 0.42, 0.36, 0.33)

    def test_verification_subset(self):
        assert TABLE_II_VERIFICATION.rates == (1.6, 3.0)
        assert TABLE_II_VERIFICATION.energy(1.6) == TABLE_II.energy(1.6)
        assert TABLE_II_VERIFICATION.energy(3.0) == TABLE_II.energy(3.0)

    def test_i7_and_exynos_are_valid(self):
        # construction itself enforces the monotonicity invariants
        assert len(I7_950) == 12
        assert len(EXYNOS_4412) == 16
        assert I7_950.min_rate == pytest.approx(1.60)
        assert EXYNOS_4412.max_rate == pytest.approx(1.7)

    def test_power_law_energy_shape(self):
        t = rate_table_from_power_law([1.0, 2.0, 4.0], dynamic_coefficient=1.0)
        # E(p) = p^2 with no static power
        assert t.energy(2.0) == pytest.approx(4.0)
        assert t.energy(4.0) == pytest.approx(16.0)

    def test_power_law_rejects_bad_params(self):
        with pytest.raises(ValueError):
            rate_table_from_power_law([1.0], dynamic_coefficient=0.0)
        with pytest.raises(ValueError):
            rate_table_from_power_law([1.0], static_power=-1.0)


class TestRateTableProperties:
    @given(rate_tables())
    def test_monotonicity_invariants(self, table):
        rates = table.rates
        assert all(a < b for a, b in zip(rates, rates[1:]))
        es = table.energy_per_cycle
        assert all(a < b for a, b in zip(es, es[1:]))
        ts = table.time_per_cycle
        assert all(a > b for a, b in zip(ts, ts[1:]))

    @given(rate_tables())
    def test_step_functions_stay_in_table(self, table):
        for p in table.rates:
            assert table.step_up(p) in table
            assert table.step_down(p) in table
            assert table.step_up(p) >= p
            assert table.step_down(p) <= p

    @given(rate_tables(min_rates=2))
    def test_lower_half_is_strict_prefix(self, table):
        low = table.lower_half()
        assert low.rates == table.rates[: len(low)]
        assert len(low) == (len(table) + 1) // 2
