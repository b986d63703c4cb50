"""Tests for the discrete-event simulation core."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import RecordingTracer
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


class TestStream:
    """``run_stream``: a time-sorted stream merged with the queue."""

    def test_stream_fires_before_queued_event_at_same_time(self):
        sim = Simulation()
        fired = []
        sim.at(1.0, lambda: fired.append("queued@1"))
        sim.at(2.0, lambda: fired.append("queued@2"))
        sim.run_stream([(0.5, "s@0.5"), (1.0, "s@1"), (2.0, "s@2")], fired.append)
        assert fired == ["s@0.5", "s@1", "queued@1", "s@2", "queued@2"]
        assert sim.now == 2.0

    def test_stream_fires_before_events_its_callback_schedules_at_same_time(self):
        # a zero-delay event scheduled by one stream item queues behind
        # the next stream item at the same instant
        sim = Simulation()
        fired = []

        def on_item(item):
            fired.append(item)
            sim.after(0.0, lambda: fired.append(f"after {item}"))

        sim.run_stream([(1.0, "a"), (1.0, "b")], on_item)
        assert fired == ["a", "b", "after a", "after b"]

    def test_queue_drains_after_stream(self):
        sim = Simulation()
        fired = []
        sim.run_stream([(1.0, "s")], lambda item: sim.after(4.0, lambda: fired.append(sim.now)))
        assert fired == [5.0]
        assert sim.now == 5.0

    def test_cancelled_queued_events_are_skipped(self):
        sim = Simulation()
        fired = []
        h = sim.at(0.5, lambda: fired.append("cancelled"))
        h.cancel()
        sim.run_stream([(1.0, "s")], fired.append)
        assert fired == ["s"]
        assert sim.events_fired == 1

    def test_events_fired_counts_streamed_events(self):
        sim = Simulation()
        sim.at(1.5, lambda: None)
        sim.run_stream([(1.0, "a"), (2.0, "b"), (3.0, "c")], lambda item: None)
        assert sim.events_fired == 4

    def test_max_events_raises_runtime_error(self):
        sim = Simulation()
        with pytest.raises(RuntimeError, match="runaway"):
            sim.run_stream(((float(t), t) for t in range(10)), lambda item: None, max_events=5)
        assert sim.events_fired == 6

    def test_max_events_counts_queued_events_too(self):
        sim = Simulation()

        def rearm():
            sim.after(0.001, rearm)

        sim.after(0.001, rearm)
        with pytest.raises(RuntimeError, match="runaway"):
            sim.run_stream([(1.0, "late")], lambda item: None, max_events=100)

    def test_cancelled_event_strictly_before_arrival_not_counted(self):
        sim = Simulation()
        fired = []
        sim.at(0.25, lambda: fired.append("kept"))
        sim.at(0.5, lambda: fired.append("cancelled")).cancel()
        sim.at(0.75, lambda: fired.append("kept too"))
        sim.run_stream([(1.0, "s")], fired.append)
        assert fired == ["kept", "kept too", "s"]
        assert sim.events_fired == 3
        assert sim.pending == 0

    def test_events_fired_in_the_merge_count_toward_max_events(self):
        def sim_with_queued_events():
            sim = Simulation()
            for t in (0.1, 0.2, 0.3):
                sim.at(t, lambda: None)
            return sim

        sim = sim_with_queued_events()
        sim.run_stream([(1.0, "a"), (2.0, "b")], lambda item: None, max_events=5)
        assert sim.events_fired == 5
        # the queued events ahead of the first arrival exhaust the budget:
        # the third one raises, before the arrival fires
        sim = sim_with_queued_events()
        fired = []
        with pytest.raises(RuntimeError, match="exceeded 2 events"):
            sim.run_stream([(1.0, "a")], fired.append, max_events=2)
        assert sim.events_fired == 3
        assert sim.now == 0.3
        assert fired == []

    def test_queued_event_at_the_arrival_instant_fires_after_it(self):
        sim = Simulation()
        fired = []
        sim.at(1.0, lambda: fired.append(("queued", sim.now)))
        sim.at(math.nextafter(1.0, 0.0), lambda: fired.append(("just before", sim.now)))
        sim.run_stream([(1.0, "arrival")], lambda item: fired.append((item, sim.now)))
        assert fired == [("just before", math.nextafter(1.0, 0.0)),
                         ("arrival", 1.0), ("queued", 1.0)]

    @pytest.mark.parametrize("bad", [0.5, math.nan])
    def test_past_or_nan_time_raises_value_error(self, bad):
        sim = Simulation()
        fired = []
        with pytest.raises(ValueError, match="out of order"):
            sim.run_stream([(1.0, "a"), (bad, "b")], fired.append)
        assert fired == ["a"]

    def test_tracer_sees_streamed_events(self):
        tracer = RecordingTracer()
        sim = Simulation(tracer=tracer)
        sim.at(1.0, lambda: None, label="done")
        sim.run_stream([(1.0, "a"), (2.0, "b")], lambda item: None)
        seen = [(e.kind, e.data["label"], e.time) for e in tracer.events]
        assert seen == [("sim.event", "arrive", 1.0), ("sim.event", "done", 1.0),
                        ("sim.event", "arrive", 2.0)]


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

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 1e3, allow_nan=False), max_size=30),
           st.lists(st.floats(0.0, 1e3, allow_nan=False), max_size=30))
    def test_stream_matches_scheduling_the_stream_first(self, streamed, queued):
        """Streaming equals scheduling the stream items before anything else."""
        def fire_order(use_stream):
            sim = Simulation()
            fired = []
            stream = [(t, ("s", i)) for i, t in enumerate(sorted(streamed))]
            if not use_stream:
                for t, item in stream:
                    sim.at(t, lambda item=item: fired.append(item))
            for i, t in enumerate(queued):
                sim.at(t, lambda i=i: fired.append(("q", i)))
            if use_stream:
                sim.run_stream(stream, fired.append)
            else:
                sim.run()
            return fired, sim.events_fired, sim.now

        assert fire_order(True) == fire_order(False)
