"""Tests for the frequency-governor emulations (Section V baselines)."""

import pytest
from hypothesis import given, strategies as st

from repro.governors import OnDemandGovernor, PowerSavingGovernor
from repro.models.rates import TABLE_II


class TestOnDemand:
    def test_high_load_jumps_to_max(self):
        gov = OnDemandGovernor(TABLE_II)
        assert gov.on_sample(1.0, 1.6) == 3.0
        assert gov.on_sample(0.85, 2.0) == 3.0  # threshold inclusive

    def test_low_load_steps_down_one_level(self):
        gov = OnDemandGovernor(TABLE_II)
        assert gov.on_sample(0.5, 3.0) == 2.8
        assert gov.on_sample(0.5, 2.8) == 2.4
        assert gov.on_sample(0.0, 1.6) == 1.6  # clamps at the floor

    def test_initial_rate_is_max(self):
        assert OnDemandGovernor(TABLE_II).initial_rate() == 3.0

    def test_load_validation(self):
        gov = OnDemandGovernor(TABLE_II)
        with pytest.raises(ValueError):
            gov.on_sample(-0.1, 2.0)
        with pytest.raises(ValueError):
            gov.on_sample(1.5, 2.0)

    def test_foreign_rate_snaps_into_menu(self):
        gov = OnDemandGovernor(TABLE_II)
        # a rate not in the table (e.g. installed mid-flight): snap + step
        out = gov.on_sample(0.1, 2.5)
        assert out in TABLE_II.rates
        assert out <= 2.5

    @given(st.floats(0.0, 1.0), st.sampled_from(TABLE_II.rates))
    def test_always_returns_menu_rate(self, load, rate):
        gov = OnDemandGovernor(TABLE_II)
        assert gov.on_sample(load, rate) in TABLE_II.rates


class TestPowerSaving:
    def test_menu_is_lower_half(self):
        gov = PowerSavingGovernor(TABLE_II)
        assert gov.available_rates() == (1.6, 2.0, 2.4)

    def test_full_load_pins_restricted_max(self):
        gov = PowerSavingGovernor(TABLE_II)
        assert gov.on_sample(1.0, 1.6) == 2.4  # not 3.0

    def test_initial_rate_is_restricted_max(self):
        assert PowerSavingGovernor(TABLE_II).initial_rate() == 2.4

    def test_step_down_within_menu(self):
        gov = PowerSavingGovernor(TABLE_II)
        assert gov.on_sample(0.2, 2.4) == 2.0
        assert gov.on_sample(0.2, 2.0) == 1.6
        assert gov.on_sample(0.2, 1.6) == 1.6

    def test_rate_above_menu_steps_into_menu(self):
        gov = PowerSavingGovernor(TABLE_II)
        assert gov.on_sample(0.2, 3.0) in gov.available_rates()

