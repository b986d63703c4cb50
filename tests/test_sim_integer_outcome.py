"""The float-free outcome of the golden online runs, pinned.

``tests/test_sim_golden.py`` and ``tests/test_lmc_decision_golden.py``
pin their runs bit for bit, floats included, so a change that only
rounds differently fails them. This file reduces the same runs to
integers only — which core each task ran on (tasks named by their trace
position), LMC's ``chosen`` core at every arrival, the events fired and
the preemptions — and pins that. A change to the simulator's float
arithmetic that re-pins the float digests must leave these unchanged:
it moved bits, not decisions.
"""

import hashlib

import pytest

from repro.governors import OnDemandGovernor
from repro.models.rates import TABLE_II
from repro.obs import RecordingTracer
from repro.schedulers import LMCOnlineScheduler, OLBOnlineScheduler, OnDemandRoundRobinScheduler
from repro.simulator import run_online
from repro.workloads import generate_open_loop_trace

from test_lmc_decision_golden import TABLES as DECISION_TABLES
from test_sim_golden import (
    EXACT,
    LITTLE,
    N_CORES,
    RE_ONLINE,
    RT_ONLINE,
    _exact_ties_trace,
    _judge_trace,
)


def _outcome(trace, result):
    """Trace position → core, then events and preemptions: integers only."""
    position = {task.task_id: i for i, task in enumerate(trace)}
    cores = sorted((position[r.task.task_id], r.core) for r in result.records)
    return (cores, result.events, result.total_preemptions)


def _lmc(trace, tables, n_cores):
    """A traced LMC run's outcome plus its ``chosen`` sequence."""
    tracer = RecordingTracer()
    sched = LMCOnlineScheduler(tables, n_cores, RE_ONLINE, RT_ONLINE, tracer=tracer)
    result = run_online(trace, sched, tables)
    chosen = [e.data["chosen"] for e in tracer
              if e.kind in ("lmc.interactive", "lmc.noninteractive")]
    assert len(chosen) == len(trace)
    return _outcome(trace, result) + (chosen,)


def online_lmc():
    return _lmc(_judge_trace(), TABLE_II, N_CORES)


def online_olb():
    trace = _judge_trace()
    return _outcome(trace, run_online(trace, OLBOnlineScheduler(TABLE_II, N_CORES), TABLE_II))


def online_ondemand_governed():
    trace = _judge_trace()
    governors = [OnDemandGovernor(TABLE_II) for _ in range(N_CORES)]
    return _outcome(trace, run_online(
        trace, OnDemandRoundRobinScheduler(N_CORES), TABLE_II, governors=governors))


def online_lmc_heterogeneous():
    tables = [TABLE_II, TABLE_II, LITTLE, LITTLE]
    return _lmc(generate_open_loop_trace(90.0, 3.0, 0.6, seed=11), tables, N_CORES)


def online_exact_ties():
    trace = _exact_ties_trace()
    olb = _outcome(trace, run_online(trace, OLBOnlineScheduler(EXACT, 2), EXACT))
    return olb + _lmc(trace, EXACT, 2)


def decision_homogeneous():
    tables = DECISION_TABLES["homogeneous"]
    return _lmc(_judge_trace(), tables, len(tables))


def decision_big_little():
    tables = DECISION_TABLES["big_little"]
    return _lmc(_judge_trace(), tables, len(tables))


SCENARIOS = {
    "online_lmc": online_lmc,
    "online_olb": online_olb,
    "online_ondemand_governed": online_ondemand_governed,
    "online_lmc_heterogeneous": online_lmc_heterogeneous,
    "online_exact_ties": online_exact_ties,
    "decision_homogeneous": decision_homogeneous,
    "decision_big_little": decision_big_little,
}

#: Recorded before the simulator integrated each core only at its own
#: state changes. ``decision_homogeneous`` is the ``online_lmc`` run
#: with the table given once per core, hence the same digest.
GOLDEN = {
    "decision_big_little": "b48b5731c1a242f6",
    "decision_homogeneous": "742c0130fe5ce661",
    "online_exact_ties": "d6629814b7264a8c",
    "online_lmc": "742c0130fe5ce661",
    "online_lmc_heterogeneous": "ee5c8184e97c4cb4",
    "online_olb": "a40357f52b406c23",
    "online_ondemand_governed": "60c930241659575e",
}


def _digest(outcome):
    return hashlib.sha256(repr(outcome).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_integer_outcome_is_pinned(name):
    assert _digest(SCENARIOS[name]()) == GOLDEN[name]


def test_outcome_holds_only_integers():
    """The digest reads no float: every leaf is an int."""
    def leaves(value):
        if isinstance(value, (list, tuple)):
            for item in value:
                yield from leaves(item)
        else:
            yield value

    for name in ("online_exact_ties", "online_ondemand_governed"):
        assert all(type(leaf) is int for leaf in leaves(SCENARIOS[name]()))
