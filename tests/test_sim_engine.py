"""Tests for the discrete-event simulation core."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.engine import Simulation


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulation()
        fired = []
        sim.at(3.0, lambda: fired.append("c"))
        sim.at(1.0, lambda: fired.append("a"))
        sim.at(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_equal_times_fifo(self):
        sim = Simulation()
        fired = []
        for i in range(5):
            sim.at(1.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_after_is_relative(self):
        sim = Simulation()
        seen = []
        sim.at(5.0, lambda: sim.after(2.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [7.0]

    def test_rejects_past_and_nan(self):
        sim = Simulation()
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(4.0, lambda: None)
        with pytest.raises(ValueError):
            sim.at(math.nan, lambda: None)
        with pytest.raises(ValueError):
            sim.after(-1.0, lambda: None)

    def test_cancellation(self):
        sim = Simulation()
        fired = []
        h = sim.at(1.0, lambda: fired.append("x"))
        sim.at(2.0, lambda: fired.append("y"))
        h.cancel()
        sim.run()
        assert fired == ["y"]

    def test_cancel_from_within_event(self):
        sim = Simulation()
        fired = []
        h2 = sim.at(2.0, lambda: fired.append("late"))
        sim.at(1.0, lambda: h2.cancel())
        sim.run()
        assert fired == []

    def test_live_event_without_callback_raises_runtime_error(self):
        # a real exception, not an assert that python -O would strip
        sim = Simulation()
        h = sim.at(1.5, lambda: None, label="orphan")
        h.callback = None
        with pytest.raises(RuntimeError, match=r"event 'orphan' \(seq 0\) at t=1\.5"):
            sim.run()

    def test_pending_counts_live_events(self):
        sim = Simulation()
        h = sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        assert sim.pending == 2
        h.cancel()
        assert sim.pending == 1


class TestRunControl:
    def test_run_until_stops_clock(self):
        sim = Simulation()
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.at(5.0, lambda: fired.append(5))
        sim.run(until=3.0)
        assert fired == [1]
        assert sim.now == 3.0
        sim.run()
        assert fired == [1, 5]

    def test_event_exactly_at_until_fires(self):
        sim = Simulation()
        fired = []
        sim.at(3.0, lambda: fired.append(3))
        sim.run(until=3.0)
        assert fired == [3]

    def test_step_fires_one(self):
        sim = Simulation()
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.at(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is True
        assert sim.step() is False

    def test_runaway_guard(self):
        sim = Simulation()

        def rearm():
            sim.after(0.001, rearm)

        sim.after(0.001, rearm)
        with pytest.raises(RuntimeError, match="runaway"):
            sim.run(max_events=100)

    def test_events_fired_counter(self):
        sim = Simulation()
        for t in (1.0, 2.0, 3.0):
            sim.at(t, lambda: None)
        sim.run()
        assert sim.events_fired == 3


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=0, max_size=50))
    def test_fire_order_is_sorted(self, times):
        sim = Simulation()
        fired = []
        for t in times:
            sim.at(t, lambda t=t: fired.append(t))
        sim.run()
        assert fired == sorted(times)
        assert sim.events_fired == len(times)
