"""Live core views: what a policy reads at every arrival, pinned bit for bit.

``run_online`` hands ``select_core`` one :class:`CoreView` per core.
The spies below read every field of every view at every arrival of
three seeded runs and reduce the readings to a SHA-256 digest. The
expected digests were recorded while views were still per-arrival
snapshots, and re-recorded once when ``running_remaining_cycles`` came
to be read lazily (:meth:`SimCore.remaining_at`, one subtraction since
the core's last own breakpoint instead of one per event); a view that
reads a stale or differently computed field changes the digest.

The same scenarios also pin the cores behind the views: an online run
advances a core only inside its own state changes (start, rate switch,
preemption, completion), never for another core's event, and keeps
arrivals out of the event heap.
"""

import hashlib
import heapq
from types import SimpleNamespace

import pytest

from repro.governors import OnDemandGovernor
from repro.models.rates import TABLE_II
from repro.schedulers import OLBOnlineScheduler, OnDemandRoundRobinScheduler
from repro.simulator import run_online
from repro.simulator import online_runner
from repro.simulator.online_runner import CoreView
from repro.simulator.platform import SimCore
from repro.workloads import JudgeTraceConfig, generate_judge_trace, generate_open_loop_trace

N_CORES = 4
FIELDS = ("current_rate", "running_kind", "running_remaining_cycles",
          "preempted_remaining_cycles", "interactive_waiting", "interactive_backlog_cycles")


def _judge_trace():
    return generate_judge_trace(JudgeTraceConfig(
        duration_s=120.0, n_interactive=1500, n_noninteractive=40, seed=5))


def _spy(base, readings):
    """``base`` with a ``select_core`` that records every view field first."""

    class Spy(base):
        def select_core(self, task, views):
            row = []
            for j, v in enumerate(views):
                assert isinstance(v, CoreView)
                assert v.index == j
                row.append(tuple(getattr(v, name) for name in FIELDS))
            readings.append((task.arrival, task.cycles, task.kind.value, tuple(row)))
            return super().select_core(task, views)

    return Spy


def _digest(readings):
    return hashlib.sha256(repr(readings).encode()).hexdigest()[:16]


def olb_readings():
    trace = _judge_trace()
    readings = []
    run_online(trace, _spy(OLBOnlineScheduler, readings)(TABLE_II, N_CORES), TABLE_II)
    return trace, readings


def olb_interactive_burst_readings():
    # long interactive tasks on two cores: interactive queues build up,
    # so interactive_waiting and interactive_backlog_cycles go non-zero
    trace = generate_open_loop_trace(60.0, 3.0, 0.3, interactive_cycles=(0.3, 1.2), seed=7)
    readings = []
    run_online(trace, _spy(OLBOnlineScheduler, readings)(TABLE_II, 2), TABLE_II)
    return trace, readings


def ondemand_governed_readings():
    trace = _judge_trace()
    readings = []
    governors = [OnDemandGovernor(TABLE_II) for _ in range(N_CORES)]
    run_online(trace, _spy(OnDemandRoundRobinScheduler, readings)(N_CORES), TABLE_II,
               governors=governors)
    return trace, readings


SCENARIOS = {
    "olb": olb_readings,
    "olb_interactive_burst": olb_interactive_burst_readings,
    "ondemand_governed": ondemand_governed_readings,
}

GOLDEN = {
    "olb": "9d02e091a71b06c6",
    "olb_interactive_burst": "6687b41b1f2aff60",
    "ondemand_governed": "5e0cccdb95d618f1",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_view_readings_are_bit_identical(name):
    trace, readings = SCENARIOS[name]()
    assert len(readings) == len(trace)
    assert _digest(readings) == GOLDEN[name]


class _SpyCore(SimCore):
    """A core that counts advances made outside its own state changes.

    ``start``, ``set_rate``, ``preempt`` and ``complete`` advance the
    core before touching it; any other advance, busy or idle, would be
    the runner integrating a core for another core's event.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stray_idle_advances = 0
        self.stray_busy_advances = 0
        self.advances = 0
        self._changing = 0
        CORES.append(self)

    def advance(self, now):
        self.advances += 1
        if not self._changing:
            if self.current is None:
                self.stray_idle_advances += 1
            else:
                self.stray_busy_advances += 1
        super().advance(now)

    def _change(self, method, *args):
        self._changing += 1
        try:
            return method(*args)
        finally:
            self._changing -= 1

    def start(self, execution, rate, now):
        self._change(super().start, execution, rate, now)

    def set_rate(self, rate, now):
        self._change(super().set_rate, rate, now)

    def preempt(self, now):
        return self._change(super().preempt, now)

    def complete(self, now):
        return self._change(super().complete, now)


CORES: list[_SpyCore] = []


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_online_cores_are_meterless_and_idle_cores_left_alone(name, monkeypatch):
    pushed = []

    def spy_heappush(heap, entry):
        pushed.append(entry)
        heapq.heappush(heap, entry)

    CORES.clear()
    monkeypatch.setattr(online_runner, "SimCore", _SpyCore)
    monkeypatch.setattr(online_runner, "heapq",
                        SimpleNamespace(heappush=spy_heappush, heappop=heapq.heappop))
    trace, readings = SCENARIOS[name]()
    assert _digest(readings) == GOLDEN[name]
    assert CORES and all(core.advances > 0 for core in CORES)
    assert [core.stray_idle_advances for core in CORES] == [0] * len(CORES)
    assert [core.stray_busy_advances for core in CORES] == [0] * len(CORES)
    # arrivals are streamed: the heap only ever holds completions (core
    # j) and ticks (~j), never a task
    assert pushed and all(type(j) is int and -len(CORES) <= j < len(CORES)
                          for _, _, j in pushed)
    labels = {"done" if j >= 0 else "tick" for _, _, j in pushed}
    assert labels == ({"done", "tick"} if name == "ondemand_governed" else {"done"})
