"""Live core views: what a policy reads at every arrival, pinned bit for bit.

``run_online`` hands ``select_core`` one :class:`CoreView` per core.
The spies below read every field of every view at every arrival of
three seeded runs and reduce the readings to a SHA-256 digest. The
expected digests were recorded while views were still per-arrival
snapshots; a view that reads a stale or differently computed field
changes the digest.

The same scenarios also pin the cores behind the views: an online run
builds meterless cores, never advances an idle one outside the state
change that wakes it, and keeps arrivals out of the event heap.
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
    "olb": "0329e42b4c98af8e",
    "olb_interactive_burst": "1f3e3cabdfc869dc",
    "ondemand_governed": "8650cf3d7747cc87",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_view_readings_are_bit_identical(name):
    trace, readings = SCENARIOS[name]()
    assert len(readings) == len(trace)
    assert _digest(readings) == GOLDEN[name]


class _SpyCore(SimCore):
    """A core that counts advances made while idle outside a state change.

    ``start`` and ``set_rate`` advance the core before touching it, so
    an idle core is advanced there; any other idle advance would be the
    runner integrating a core that has nothing to integrate.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stray_idle_advances = 0
        self.advances = 0
        self._changing = 0
        CORES.append(self)

    def advance(self, now):
        self.advances += 1
        if self.current is None and not self._changing:
            self.stray_idle_advances += 1
        super().advance(now)

    def start(self, execution, rate, now):
        self._changing += 1
        try:
            super().start(execution, rate, now)
        finally:
            self._changing -= 1

    def set_rate(self, rate, now):
        self._changing += 1
        try:
            super().set_rate(rate, now)
        finally:
            self._changing -= 1


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
    assert CORES and all(core.meter is None for core in CORES)
    assert all(core.advances > 0 for core in CORES)
    assert [core.stray_idle_advances for core in CORES] == [0] * len(CORES)
    # arrivals are streamed: the heap only ever holds completions (core
    # j) and ticks (~j), never a task
    assert pushed and all(type(j) is int and -len(CORES) <= j < len(CORES)
                          for _, _, j in pushed)
    labels = {"done" if j >= 0 else "tick" for _, _, j in pushed}
    assert labels == ({"done", "tick"} if name == "ondemand_governed" else {"done"})


def test_meterless_core_charges_tasks_exactly_as_a_metered_one():
    """Dropping the meter changes no task's books, switch overhead included."""
    from repro.models.task import Task
    from repro.simulator.contention import CALIBRATED_X86
    from repro.simulator.platform import TaskExecution
    from repro.simulator.power import PowerMeter

    def books(metered):
        core = SimCore(0, TABLE_II, contention=CALIBRATED_X86,
                       meter=PowerMeter() if metered else None)
        first = TaskExecution(task=Task(cycles=3.0), remaining_cycles=3.0)
        second = TaskExecution(task=Task(cycles=0.7), remaining_cycles=0.7)
        core.advance(0.25)  # idle
        core.start(first, 2.0, 0.5)
        core.set_rate(3.0, 0.9)
        core.preempt(1.1)
        core.start(second, 1.6, 1.1)
        core.complete(core.next_completion_time(1.1))
        core.start(first, 2.4, core.last_update + 0.5)
        core.complete(core.next_completion_time(core.last_update))
        return core, [(e.energy_joules, e.busy_seconds, e.remaining_cycles, e.finished_at)
                      for e in (first, second)]

    metered, metered_books = books(True)
    meterless, meterless_books = books(False)
    assert meterless.meter is None and metered.meter is not None
    assert meterless_books == metered_books
    assert metered.meter.busy_joules > 0
