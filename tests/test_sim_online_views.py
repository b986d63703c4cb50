"""Live core views: what a policy reads at every arrival, pinned bit for bit.

``run_online`` hands ``select_core`` one :class:`CoreView` per core.
The spies below read every field of every view at every arrival of
three seeded runs and reduce the readings to a SHA-256 digest. The
expected digests were recorded while views were still per-arrival
snapshots; a view that reads a stale or differently computed field
changes the digest.
"""

import hashlib

import pytest

from repro.governors import OnDemandGovernor
from repro.models.rates import TABLE_II
from repro.schedulers import OLBOnlineScheduler, OnDemandRoundRobinScheduler
from repro.simulator import run_online
from repro.simulator.online_runner import CoreView
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
