"""Golden digests of simulator runs, pinned bit for bit.

Each scenario drives one simulator path to completion and reduces the
run to a tuple of exact outputs: cost, energy, horizon or makespan and,
for online runs, events fired and preemptions. The expected ``repr``
strings were recorded before the simulator's hot path was reworked
(cached per-state constants in ``SimCore``, tuple event heap, leaner
batch loop); a refactor that changes the order or number of float
operations changes the last digits and fails here.

They were re-recorded once, deliberately, when each core came to be
integrated only at its own state changes: fewer roundings moved the last
ulps of four scenarios. The float-free outcome of the same runs
(tests/test_sim_integer_outcome.py) did not move, and every record of
the old and the new runs lies within its bound of the exact replay in
:mod:`repro.verify.exact_sim`.

The traced batch scenario's four per-core busy joules were re-pinned
once more when the power trace came to be derived from the task records
(one segment per record, summed in a different order): each moved by a
few ulps, recorded on the commit before the change by applying the same
derivation to its records. Its digest, idle joules and sampled energies
did not move.

Together the scenarios cover the ideal and the contention batch paths
(co-runner refresh, switch overhead, the derived power trace), the
online runner under LMC, OLB and On-demand with governors (rate
switches and ticks), one heterogeneous platform, and one platform whose
times are exact integers, so that arrivals land on completion instants
and cores sit idle between bursts.
"""

import dataclasses
import random

import pytest

from repro.analysis.powerprofile import power_trace, sampled_energy
from repro.governors import OnDemandGovernor
from repro.models.rates import TABLE_II, RateTable, rate_table_from_power_law
from repro.models.task import Task, TaskKind
from repro.schedulers import (
    LMCOnlineScheduler,
    OLBOnlineScheduler,
    OnDemandRoundRobinScheduler,
    wbg_plan,
)
from repro.simulator import OnlineTaskRecord, run_batch, run_online
from repro.simulator.contention import CALIBRATED_X86, NO_CONTENTION
from repro.workloads import JudgeTraceConfig, generate_judge_trace, generate_open_loop_trace
from repro.workloads.synthetic import lognormal_batch

N_CORES = 4
RE_BATCH, RT_BATCH = 0.1, 0.4
RE_ONLINE, RT_ONLINE = 0.4, 0.1

LITTLE = rate_table_from_power_law([0.6, 0.9, 1.2, 1.5], dynamic_coefficient=0.25, name="little")
#: T(p) = 1/p is exact in binary, so integer cycles give exact times
EXACT = RateTable([1.0, 2.0], [1.0, 3.0], name="exact")


def _judge_trace():
    return generate_judge_trace(JudgeTraceConfig(
        duration_s=120.0, n_interactive=1500, n_noninteractive=40, seed=5))


def _batch_digest(result):
    cost = result.cost(RE_BATCH, RT_BATCH)
    return (cost.total_cost, cost.energy_joules, result.makespan)


def _online_digest(result):
    cost = result.cost(RE_ONLINE, RT_ONLINE)
    return (cost.total_cost, cost.energy_joules, result.horizon,
            result.events, result.total_preemptions)


def _wbg_plan():
    return wbg_plan(list(lognormal_batch(400, seed=3)), TABLE_II, N_CORES, RE_BATCH, RT_BATCH)


def batch_wbg_ideal():
    return _batch_digest(run_batch(_wbg_plan(), TABLE_II, contention=NO_CONTENTION))


def batch_wbg_contention_traced():
    result = run_batch(_wbg_plan(), TABLE_II, contention=CALIBRATED_X86)
    cores = tuple((sum((s.joules for s in segments if not s.idle), 0.0),
                   sum((s.joules for s in segments if s.idle), 0.0),
                   sampled_energy(segments, 1.0))
                  for segments in power_trace(result, TABLE_II, idle_power=1.5))
    return _batch_digest(result) + cores


def online_lmc():
    trace = _judge_trace()
    return _online_digest(run_online(
        trace, LMCOnlineScheduler(TABLE_II, N_CORES, RE_ONLINE, RT_ONLINE), TABLE_II))


def online_olb():
    trace = _judge_trace()
    return _online_digest(run_online(trace, OLBOnlineScheduler(TABLE_II, N_CORES), TABLE_II))


def online_ondemand_governed():
    trace = _judge_trace()
    governors = [OnDemandGovernor(TABLE_II) for _ in range(N_CORES)]
    return _online_digest(run_online(
        trace, OnDemandRoundRobinScheduler(N_CORES), TABLE_II, governors=governors))


def online_lmc_heterogeneous():
    tables = [TABLE_II, TABLE_II, LITTLE, LITTLE]
    trace = generate_open_loop_trace(90.0, 3.0, 0.6, seed=11)
    return _online_digest(run_online(
        trace, LMCOnlineScheduler(tables, N_CORES, RE_ONLINE, RT_ONLINE), tables))


def _exact_ties_trace():
    """Integer arrivals and even cycle counts (integer seconds at 2.0).

    Completions fall on integer instants, so many arrivals coincide
    with a completion; the long gaps leave every core idle.
    """
    rng = random.Random(13)
    tasks, t = [], 0
    for _ in range(120):
        t += rng.choice((0, 0, 1, 1, 2, 3, 12))
        kind = TaskKind.INTERACTIVE if rng.random() < 0.4 else TaskKind.NONINTERACTIVE
        tasks.append(Task(cycles=float(2 * rng.randint(1, 4)), arrival=float(t), kind=kind))
    return tasks


def online_exact_ties():
    trace = _exact_ties_trace()
    olb = run_online(trace, OLBOnlineScheduler(EXACT, 2), EXACT)
    lmc = run_online(trace, LMCOnlineScheduler(EXACT, 2, RE_ONLINE, RT_ONLINE), EXACT)
    return _online_digest(olb) + _online_digest(lmc)


SCENARIOS = {
    "batch_wbg_ideal": batch_wbg_ideal,
    "batch_wbg_contention_traced": batch_wbg_contention_traced,
    "online_lmc": online_lmc,
    "online_olb": online_olb,
    "online_ondemand_governed": online_ondemand_governed,
    "online_lmc_heterogeneous": online_lmc_heterogeneous,
    "online_exact_ties": online_exact_ties,
}

GOLDEN = {
    'batch_wbg_contention_traced': '(59723.50665899158, 94904.00446195995, 1473.4505017702031, (24452.787704640046, 0.0, 24460.656432503656), (24049.954917920244, 45.61311602008243, 24109.083804604168), (23393.87968146624, 153.8893007152243, 23556.092202872536), (23007.38215793339, 210.0457833743003, 23228.79462711493))',
    'batch_wbg_ideal': '(52623.279099824795, 84076.67775710882, 1321.3323076033494)',
    'online_exact_ties': '(782.0000000000001, 1812.0, 301.0, 240, 13, 553.8, 1092.0, 305.0, 240, 17)',
    'online_lmc': '(1174.0746539948486, 2597.3937262583513, 231.6861904386432, 3080, 363)',
    'online_lmc_heterogeneous': '(379.32797685682, 290.4439716889833, 285.47932894447524, 614, 252)',
    'online_olb': '(2232.895371704711, 5375.005607861716, 178.1366365568373, 3080, 497)',
    'online_ondemand_governed': '(2228.763980826181, 5296.910284635516, 196.02728176570048, 3868, 404)',
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_digest_is_bit_identical(name):
    assert repr(SCENARIOS[name]()) == GOLDEN[name]


def test_exact_ties_trace_has_ties_and_idle_gaps():
    """The exact scenario keeps exercising what it was built for."""
    trace = _exact_ties_trace()
    result = run_online(trace, OLBOnlineScheduler(EXACT, 2), EXACT)
    finishes = {r.finish for r in result.records}
    assert sum(t.arrival in finishes for t in trace) >= 20
    finish_of = {r.task.task_id: r.finish for r in result.records}
    busy_until, idle_gaps = 0.0, 0
    for task in sorted(trace, key=lambda t: (t.arrival, t.task_id)):
        idle_gaps += task.arrival > busy_until
        busy_until = max(busy_until, finish_of[task.task_id])
    assert idle_gaps >= 5


def test_runner_records_equal_field_by_field_records():
    """The runner's records equal ones built through ``__init__``, and
    stay frozen, slotted dataclasses."""
    result = run_online(_judge_trace(), LMCOnlineScheduler(TABLE_II, N_CORES, RE_ONLINE,
                                                           RT_ONLINE), TABLE_II)
    assert repr(_online_digest(result)) == GOLDEN["online_lmc"]
    for record in result.records:
        rebuilt = OnlineTaskRecord(
            task=record.task,
            core=record.core,
            first_start=record.first_start,
            finish=record.finish,
            energy_joules=record.energy_joules,
            preemptions=record.preemptions,
            busy_seconds=record.busy_seconds,
        )
        assert record == rebuilt
        assert dataclasses.astuple(record) == dataclasses.astuple(rebuilt)
    record = result.records[0]
    assert not hasattr(record, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.finish = 0.0
    moved = dataclasses.replace(record, core=record.core + 1)
    assert moved.core == record.core + 1 and moved.task is record.task
    assert moved != record
    assert [f.name for f in dataclasses.fields(OnlineTaskRecord)] == [
        "task", "core", "first_start", "finish", "energy_joules", "preemptions",
        "busy_seconds"]
