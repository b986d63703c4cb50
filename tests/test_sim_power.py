"""Tests for the power-meter substrate."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.power import PowerMeter


class TestIdleFloorValidation:
    @pytest.mark.parametrize("idle_power", [-1.0, math.nan, math.inf, -math.inf])
    def test_rejects_bad_idle_power(self, idle_power):
        with pytest.raises(ValueError, match="idle_power must be finite and non-negative"):
            PowerMeter(idle_power=idle_power)

    def test_zero_idle_power_accepted(self):
        assert PowerMeter(idle_power=0.0).idle_power == 0.0


class TestIntegration:
    def test_busy_energy_is_power_times_time(self):
        m = PowerMeter()
        m.record_busy(0.0, 10.0, 5.0)
        assert m.net_joules == pytest.approx(50.0)
        assert m.gross_joules == pytest.approx(50.0)

    def test_idle_booked_separately(self):
        m = PowerMeter(idle_power=30.0)
        m.record_busy(0.0, 2.0, 10.0)
        m.record_idle(2.0, 4.0)
        assert m.net_joules == pytest.approx(20.0)  # idle subtracted
        assert m.idle_joules == pytest.approx(60.0)
        assert m.gross_joules == pytest.approx(80.0)

    def test_zero_length_interval_is_noop(self):
        m = PowerMeter()
        m.record_busy(1.0, 1.0, 100.0)
        assert m.net_joules == 0.0

    def test_validation(self):
        m = PowerMeter()
        with pytest.raises(ValueError):
            m.record_busy(2.0, 1.0, 5.0)  # end before start
        with pytest.raises(ValueError):
            m.record_busy(0.0, 1.0, -5.0)  # negative power
        with pytest.raises(ValueError):
            m.record_idle(math.nan, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 100), st.floats(0, 1000)),
            min_size=0,
            max_size=30,
        )
    )
    def test_energy_is_sum_of_segments(self, segments):
        m = PowerMeter()
        expected = 0.0
        for a, b, w in segments:
            lo, hi = min(a, b), max(a, b)
            m.record_busy(lo, hi, w)
            expected += w * (hi - lo)
        assert m.net_joules == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestTraceAndSampling:
    def test_power_at_reads_overlapping_segments(self):
        m = PowerMeter()
        m.record_busy(0.0, 10.0, 5.0)
        m.record_busy(5.0, 15.0, 3.0)  # a second core on the same meter
        assert m.power_at(2.0) == pytest.approx(5.0)
        assert m.power_at(7.0) == pytest.approx(8.0)
        assert m.power_at(12.0) == pytest.approx(3.0)
        assert m.power_at(20.0) == 0.0

    def test_sampled_energy_exact_for_aligned_segments(self):
        m = PowerMeter()
        m.record_busy(0.0, 4.0, 10.0)
        # 1 Hz samples aligned with a piecewise-constant signal: exact
        assert m.sampled_energy(1.0) == pytest.approx(40.0)

    def test_sampled_energy_close_at_fine_period(self):
        m = PowerMeter()
        m.record_busy(0.0, 3.3, 7.0)
        m.record_busy(3.3, 5.1, 2.0)
        exact = m.gross_joules
        approx = m.sampled_energy(0.01)
        assert approx == pytest.approx(exact, rel=0.02)

    def test_sampling_validation(self):
        m = PowerMeter()
        m.record_busy(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            m.sampled_energy(0.0)

    def test_disabled_trace_blocks_queries(self):
        m = PowerMeter(keep_trace=False)
        m.record_busy(0.0, 1.0, 1.0)
        assert m.net_joules == pytest.approx(1.0)  # accounting still works
        with pytest.raises(RuntimeError):
            m.power_at(0.5)
        with pytest.raises(RuntimeError):
            m.sampled_energy(1.0)


class TestMerge:
    def test_merge_folds_books(self):
        a = PowerMeter(idle_power=10.0)
        a.record_busy(0.0, 1.0, 5.0)
        a.record_idle(1.0, 2.0)
        b = PowerMeter(idle_power=10.0)
        b.record_busy(0.0, 3.0, 2.0)
        a.merge(b)
        assert a.net_joules == pytest.approx(11.0)
        assert a.idle_joules == pytest.approx(10.0)
        # merged trace answers combined queries
        assert a.power_at(0.5) == pytest.approx(7.0)
