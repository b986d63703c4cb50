"""Tests for the simulator's event loop, the one inside ``run_online``.

The loop merges the time-sorted arrivals with a heap of ``(time, seq,
j)`` entries (``j`` a core's completion, ``~j`` its governor tick). The
scenarios below run on a table whose times are exact in binary, so
arrivals and completions can be made to coincide to the last bit, and
drive the runner through a minimal policy that pins tasks to cores and
logs every arrival and completion in the order the loop fires them.
"""

import math
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.governors.base import Governor
from repro.models.rates import TABLE_II, RateTable
from repro.models.task import Task, TaskKind
from repro.obs import RecordingTracer
from repro.schedulers import LMCOnlineScheduler
from repro.simulator import online_runner, run_online
from repro.simulator.platform import SimCore
from repro.workloads import JudgeTraceConfig, generate_judge_trace

#: T(p) = 1/p is exact in binary: c cycles at 2.0 take exactly c/2 s
EXACT = RateTable([1.0, 2.0], [1.0, 3.0], name="exact")


def ni(name, cycles, arrival):
    return Task(cycles=cycles, arrival=arrival, kind=TaskKind.NONINTERACTIVE, name=name)


def inter(name, cycles, arrival):
    return Task(cycles=cycles, arrival=arrival, kind=TaskKind.INTERACTIVE, name=name)


class Pinned:
    """Policy that runs task ``name`` on core ``cores.get(name, 0)``.

    Non-interactive tasks queue FIFO per core. ``ni_rate(core, queued)``
    may pick the non-interactive rate from the queue length; otherwise
    every rate is left as it is. ``log`` lists ``("arrive", name)`` and
    ``("complete", name)`` in firing order; ``views`` maps each arrival
    to what its core's view showed at that moment.
    """

    def __init__(self, n_cores, cores=None, ni_rate=None):
        self.n_cores = n_cores
        self.cores = cores or {}
        self.ni_rate = ni_rate
        self.queues = [deque() for _ in range(n_cores)]
        self.log = []
        self.views = {}

    def select_core(self, task, views):
        j = self.cores.get(task.name, 0)
        self.log.append(("arrive", task.name))
        self.views[task.name] = (views[j].running_kind, views[j].running_remaining_cycles)
        return j

    def enqueue_noninteractive(self, core, task):
        self.queues[core].append(task)

    def dequeue_noninteractive(self, core):
        q = self.queues[core]
        return q.popleft() if q else None

    def rate_for_noninteractive(self, core, task):
        return None if self.ni_rate is None else self.ni_rate(core, len(self.queues[core]))

    def rate_for_interactive(self, core, task):
        return None

    def on_complete(self, core, task):
        self.log.append(("complete", task.name))


class Recording(Governor):
    """Keeps the rate; records every load sample it is handed."""

    def __init__(self, table, period=1.0):
        super().__init__(table)
        self.sampling_period = period
        self.loads = []

    def on_sample(self, load, current_rate):
        self.loads.append(load)
        return current_rate


def finishes(result):
    return {r.task.name: r.finish for r in result.records}


class TestScheduling:
    def test_events_fire_in_time_order(self):
        trace = [ni("long", 8.0, 0.0), ni("mid", 4.0, 0.5), ni("short", 2.0, 1.0)]
        policy = Pinned(3, {"long": 0, "mid": 1, "short": 2})
        result = run_online(trace, policy, EXACT)
        assert [(r.task.name, r.finish) for r in result.records] == [
            ("short", 2.0), ("mid", 2.5), ("long", 4.0)]
        assert policy.log[3:] == [("complete", "short"), ("complete", "mid"),
                                  ("complete", "long")]
        assert result.horizon == 4.0

    def test_equal_times_fifo(self):
        # three completions at t=1.0 fire in push order, not core order
        trace = [ni("a", 2.0, 0.0), ni("b", 2.0, 0.0), ni("c", 2.0, 0.0)]
        result = run_online(trace, Pinned(3, {"a": 2, "b": 0, "c": 1}), EXACT)
        assert [(r.task.name, r.core, r.finish) for r in result.records] == [
            ("a", 2, 1.0), ("b", 0, 1.0), ("c", 1, 1.0)]

    def test_after_is_relative(self):
        # ticks re-arm one period after the tick: 1, 2, 3; the task runs
        # [0, 2.5], so the third window is half busy and the last tick
        # (outstanding == 0) does not re-arm
        gov = Recording(EXACT)
        result = run_online([ni("t", 5.0, 0.0)], Pinned(1), EXACT, governors=[gov])
        assert gov.loads == [1.0, 1.0, 0.5]
        assert result.events == 2 + 3

    def test_rejects_past_and_nan(self, monkeypatch):
        def run_with(completion_time):
            class Core(SimCore):
                def next_completion_time(self, now):
                    return completion_time(self, now)

            monkeypatch.setattr(online_runner, "SimCore", Core)
            return run_online([ni("t", 2.0, 1.0)], Pinned(1), EXACT)

        with pytest.raises(ValueError, match=r"cannot schedule in the past: t=0\.5 < now=1\.0"):
            run_with(lambda core, now: now - 0.5)
        with pytest.raises(RuntimeError, match="non-finite completion time nan"):
            run_with(lambda core, now: math.nan)

    def test_cancellation(self):
        # "a" runs at 2.0 and would finish at 2.0; "b" queues behind it at
        # t=1 and slows it to 1.0, so its completion moves to 3.0 and the
        # entry at 2.0 is skipped, uncounted
        trace = [ni("a", 4.0, 0.0), ni("b", 2.0, 1.0)]
        policy = Pinned(1, ni_rate=lambda core, queued: 1.0 if queued else 2.0)
        result = run_online(trace, policy, EXACT)
        assert finishes(result) == {"a": 3.0, "b": 4.0}
        assert result.events == 4

    def test_cancel_from_within_event(self):
        # an interactive arrival preempts "ni": its completion at 2.0 is
        # superseded; it resumes after "q" and finishes at 2.5
        trace = [ni("ni", 4.0, 0.0), inter("q", 1.0, 1.0)]
        result = run_online(trace, Pinned(1), EXACT)
        assert finishes(result) == {"q": 1.5, "ni": 2.5}
        assert [r.preemptions for r in result.records] == [0, 1]
        assert result.events == 4


class TestRunControl:
    def test_runaway_guard(self, monkeypatch):
        monkeypatch.setattr(online_runner, "MAX_EVENTS", 100)
        gov = Recording(EXACT, period=1e-3)
        with pytest.raises(RuntimeError, match="exceeded 100 events — runaway"):
            run_online([ni("t", 1.0, 0.0)], Pinned(1), EXACT, governors=[gov])

    def test_events_fired_counter(self):
        trace = [ni(f"t{i}", 2.0, float(i)) for i in range(3)] + [inter("q", 1.0, 0.5)]
        result = run_online(trace, Pinned(1), EXACT)
        assert result.events == 2 * len(trace) == 8


class TestStream:
    """The arrivals stream past the heap of completions and ticks."""

    def test_stream_fires_before_queued_event_at_same_time(self):
        # "a" finishes at exactly 1.0 and "d" at 2.0, the instants "s1"
        # and "s2" arrive: each arrival fires first
        trace = [ni("a", 2.0, 0.0), ni("d", 4.0, 0.0), ni("s05", 0.5, 0.5),
                 ni("s1", 0.5, 1.0), ni("s2", 0.5, 2.0)]
        policy = Pinned(3, {"a": 0, "d": 1, "s05": 2, "s1": 0, "s2": 1})
        run_online(trace, policy, EXACT)
        log = policy.log
        assert log.index(("arrive", "s1")) < log.index(("complete", "a"))
        assert log.index(("arrive", "s2")) < log.index(("complete", "d"))
        # the view at "s1" still shows "a" running, with nothing left
        assert policy.views["s1"] == (TaskKind.NONINTERACTIVE, 0.0)

    def test_stream_fires_before_events_its_callback_schedules_at_same_time(self):
        # at t = 2**53 (ulp 2.0) half a second rounds away: "a" queues its
        # completion at its own arrival instant, behind "b"'s arrival
        t = 2.0 ** 53
        trace = [ni("a", 1.0, t), ni("b", 1.0, t)]
        policy = Pinned(2, {"b": 1})
        result = run_online(trace, policy, EXACT)
        assert policy.log == [("arrive", "a"), ("arrive", "b"),
                              ("complete", "a"), ("complete", "b")]
        assert finishes(result) == {"a": t, "b": t}

    def test_queue_drains_after_stream(self):
        trace = [ni("first", 2.0, 0.0), ni("last", 8.0, 1.0)]
        result = run_online(trace, Pinned(2, {"last": 1}), EXACT)
        assert finishes(result) == {"first": 1.0, "last": 5.0}
        assert result.horizon == 5.0

    def test_cancelled_queued_events_are_skipped(self, monkeypatch):
        pushed = []
        heappush = online_runner.heapq.heappush

        def spy(heap, entry):
            pushed.append(entry)
            heappush(heap, entry)

        monkeypatch.setattr(online_runner.heapq, "heappush", spy)
        trace = generate_judge_trace(JudgeTraceConfig(
            duration_s=60.0, n_interactive=600, n_noninteractive=20, seed=5))
        result = run_online(trace, LMCOnlineScheduler(TABLE_II, 4, 0.4, 0.1), TABLE_II)
        assert result.total_preemptions > 0
        # rate changes and preemptions superseded entries that were
        # pushed, popped and skipped without counting
        assert len(pushed) > len(trace)
        assert result.events == 2 * len(trace)

    def test_events_fired_counts_streamed_events(self):
        gov = Recording(EXACT)
        trace = [ni("a", 3.0, 0.25), ni("b", 2.0, 2.0), inter("q", 1.0, 2.5)]
        result = run_online(trace, Pinned(1), EXACT, governors=[gov])
        assert result.events == len(trace) + len(result.records) + len(gov.loads)

    def test_max_events_raises_runtime_error(self, monkeypatch):
        monkeypatch.setattr(online_runner, "MAX_EVENTS", 5)
        trace = [ni(f"t{i}", 1.0, float(i)) for i in range(10)]
        policy = Pinned(1)
        with pytest.raises(RuntimeError, match="runaway"):
            run_online(trace, policy, EXACT)
        # arrive, complete, arrive, complete, arrive; the next one raises
        assert policy.log[-1] == ("arrive", "t2")
        assert len(policy.log) == 5

    def test_max_events_counts_queued_events_too(self, monkeypatch):
        monkeypatch.setattr(online_runner, "MAX_EVENTS", 100)
        gov = Recording(EXACT, period=1e-3)
        policy = Pinned(1)
        with pytest.raises(RuntimeError, match="runaway"):
            run_online([ni("late", 1.0, 1.0)], policy, EXACT, governors=[gov])
        assert policy.log == []
        assert len(gov.loads) == 100

    def test_cancelled_event_strictly_before_arrival_not_counted(self, monkeypatch):
        # the superseded entry at 2.0 is popped before "c" arrives at 5.0;
        # a budget of exactly six events still suffices
        monkeypatch.setattr(online_runner, "MAX_EVENTS", 6)
        trace = [ni("a", 4.0, 0.0), ni("b", 2.0, 1.0), ni("c", 2.0, 5.0)]
        policy = Pinned(1, ni_rate=lambda core, queued: 1.0 if queued else 2.0)
        result = run_online(trace, policy, EXACT)
        assert finishes(result) == {"a": 3.0, "b": 4.0, "c": 6.0}
        assert result.events == 6

    def test_events_fired_in_the_merge_count_toward_max_events(self, monkeypatch):
        trace = [ni("a", 1.0, 0.0), ni("b", 1.0, 0.25), ni("c", 1.0, 1.0)]
        cores = {"b": 1}
        assert run_online(trace, Pinned(2, cores), EXACT).events == 6
        # the completions ahead of "c" exhaust a budget of three: the
        # second one raises, before "c" arrives
        monkeypatch.setattr(online_runner, "MAX_EVENTS", 3)
        policy = Pinned(2, cores)
        with pytest.raises(RuntimeError, match="exceeded 3 events"):
            run_online(trace, policy, EXACT)
        assert policy.log == [("arrive", "a"), ("arrive", "b"), ("complete", "a")]

    def test_queued_event_at_the_arrival_instant_fires_after_it(self):
        # "early" finishes one ulp before 1.0, "on_time" at exactly 1.0
        trace = [ni("early", math.nextafter(2.0, 0.0), 0.0), ni("on_time", 2.0, 0.0),
                 ni("arrival", 1.0, 1.0)]
        policy = Pinned(3, {"on_time": 1, "arrival": 2})
        result = run_online(trace, policy, EXACT)
        assert policy.log[2:5] == [("complete", "early"), ("arrive", "arrival"),
                                   ("complete", "on_time")]
        assert finishes(result)["early"] == math.nextafter(1.0, 0.0)

    @pytest.mark.parametrize("bad", [0.5, math.nan])
    def test_past_or_nan_time_raises_value_error(self, bad):
        # a task whose arrival is rewritten once the stream is sorted
        late = ni("b", 1.0, 2.0)

        class Rewriting(Pinned):
            def select_core(self, task, views):
                object.__setattr__(late, "arrival", bad)
                return super().select_core(task, views)

        policy = Rewriting(1)
        with pytest.raises(ValueError, match="out of order"):
            run_online([ni("a", 1.0, 1.0), late], policy, EXACT)
        assert policy.log == [("arrive", "a")]

    def test_tracer_sees_streamed_events(self):
        tracer = RecordingTracer()
        trace = [ni("a", 2.0, 0.0), ni("b", 2.0, 1.0)]
        run_online(trace, Pinned(2, {"b": 1}), EXACT, tracer=tracer)
        seen = [(e.kind, e.data["task"], e.time) for e in tracer.events]
        assert seen == [("sim.dispatch", "a", 0.0), ("sim.dispatch", "b", 1.0),
                        ("sim.complete", "a", 1.0), ("sim.complete", "b", 2.0)]


# tasks on a coarse grid: many arrivals land on completion instants
grid_tasks = st.lists(
    st.tuples(st.integers(0, 12), st.integers(1, 4), st.booleans(), st.integers(0, 2)),
    max_size=30)


def _run_grid(specs):
    trace, cores = [], {}
    for i, (arrival, half_cycles, interactive, core) in enumerate(specs):
        kind = TaskKind.INTERACTIVE if interactive else TaskKind.NONINTERACTIVE
        trace.append(Task(cycles=2.0 * half_cycles, arrival=float(arrival), kind=kind,
                          name=f"t{i}"))
        cores[f"t{i}"] = core
    policy = Pinned(3, cores)
    result = run_online(trace, policy, EXACT)
    arrival = {t.name: t.arrival for t in trace}
    finish = finishes(result)
    fired = [(arrival[name] if what == "arrive" else finish[name], what == "complete")
             for what, name in policy.log]
    return trace, result, fired


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(grid_tasks)
    def test_fire_order_is_sorted(self, specs):
        trace, result, fired = _run_grid(specs)
        times = [t for t, _ in fired]
        assert times == sorted(times)
        assert [r.finish for r in result.records] == sorted(r.finish for r in result.records)
        assert result.events == len(fired) == 2 * len(trace)

    @settings(max_examples=40, deadline=None)
    @given(grid_tasks)
    def test_stream_matches_scheduling_the_stream_first(self, specs):
        """At every instant all arrivals fire before any queued completion."""
        _, _, fired = _run_grid(specs)
        assert fired == sorted(fired)
