"""Tests for the continuous power-law energy model (Section II-C)."""

import pytest
from hypothesis import given, strategies as st

from repro.models.energy import PowerLawEnergy


class TestPowerLawEnergy:
    def test_cubic_power_gives_square_energy(self):
        p = PowerLawEnergy(coefficient=2.0, alpha=3.0)
        assert p.energy_per_cycle(3.0) == pytest.approx(18.0)  # 2·3²
        assert p.power(3.0) == pytest.approx(54.0)  # 2·3³
        assert p.time_per_cycle(4.0) == pytest.approx(0.25)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PowerLawEnergy(coefficient=0.0)
        with pytest.raises(ValueError):
            PowerLawEnergy(alpha=1.0)
        p = PowerLawEnergy()
        with pytest.raises(ValueError):
            p.energy_per_cycle(0.0)
        with pytest.raises(ValueError):
            p.time_per_cycle(-1.0)

    def test_optimal_rate_is_stationary_point(self):
        p = PowerLawEnergy(coefficient=1.5, alpha=3.0)
        re, rt, behind = 0.3, 0.7, 4
        star = p.optimal_rate(re, rt, behind)

        def cost(rate):
            m = behind + 1
            return re * p.energy_per_cycle(rate) + m * rt * p.time_per_cycle(rate)

        # a genuine minimum: perturbing in either direction costs more
        assert cost(star) <= cost(star * 1.01)
        assert cost(star) <= cost(star * 0.99)

    def test_optimal_rate_grows_with_queue(self):
        p = PowerLawEnergy()
        rates = [p.optimal_rate(1.0, 1.0, n) for n in range(6)]
        assert rates == sorted(rates)
        assert rates[0] < rates[-1]

    def test_optimal_rate_validation(self):
        p = PowerLawEnergy()
        with pytest.raises(ValueError):
            p.optimal_rate(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            p.optimal_rate(1.0, 1.0, -1)

    def test_discretize_produces_consistent_table(self):
        p = PowerLawEnergy(coefficient=0.5, alpha=3.0)
        t = p.discretize([1.0, 2.0, 3.0])
        for rate in t.rates:
            assert t.energy(rate) == pytest.approx(p.energy_per_cycle(rate))
            assert t.time(rate) == pytest.approx(p.time_per_cycle(rate))

    @given(st.floats(1.1, 4.0), st.integers(0, 20))
    def test_optimal_rate_positive_for_all_alphas(self, alpha, behind):
        p = PowerLawEnergy(alpha=alpha)
        assert p.optimal_rate(0.5, 2.0, behind) > 0

