"""The exact replay oracle (repro.verify.exact_sim) on known runs."""

import dataclasses
import math
from fractions import Fraction

import pytest

from repro.models.cost import CoreSchedule, Placement
from repro.models.rates import TABLE_II, RateTable
from repro.models.task import Task, TaskKind
from repro.obs import RecordingTracer
from repro.schedulers import LMCOnlineScheduler, OLBOnlineScheduler, olb_plan
from repro.simulator import run_batch, run_online
from repro.verify import exact_sim
from repro.workloads import JudgeTraceConfig, generate_judge_trace
from repro.workloads.synthetic import lognormal_batch

#: T(p) = 1/p and E(p) are exact in binary
EXACT = RateTable([1.0, 2.0], [1.0, 3.0], name="exact")


def _traced(trace, policy, tables):
    tracer = RecordingTracer()
    result = run_online(trace, policy, tables, tracer=tracer)
    return tracer, result


def test_online_replay_is_exact_on_a_dyadic_platform():
    # an interactive task preempts a non-interactive one; every time and
    # joule is a dyadic rational, so the float run is exact too
    trace = [Task(cycles=8.0, arrival=0.0, kind=TaskKind.NONINTERACTIVE),
             Task(cycles=2.0, arrival=1.0, kind=TaskKind.INTERACTIVE)]
    tracer, result = _traced(trace, OLBOnlineScheduler(EXACT, 1), EXACT)
    exact = exact_sim.replay_online(tracer, trace, EXACT)
    for record in result.records:
        x = exact[record.task.task_id]
        assert x.cycles == Fraction(record.task.cycles)
        assert x.finish == Fraction(record.finish)
        assert x.busy_seconds == Fraction(record.busy_seconds)
        assert x.energy_joules == Fraction(record.energy_joules)
    errors = exact_sim.online_errors(tracer, trace, result, EXACT)
    assert [e.worst_ulps for e in errors] == [0.0, 0.0]
    assert sum(r.preemptions for r in result.records) == 1


def test_ideal_batch_is_equation_8():
    a, b = Task(cycles=3.0), Task(cycles=5.0)
    plan = [CoreSchedule([Placement(a, 2.0), Placement(b, 1.0)], core_index=0)]
    exact = exact_sim.ideal_batch(plan, EXACT)
    assert exact[a.task_id].finish == Fraction(3, 2)
    assert exact[b.task_id].start == Fraction(3, 2)
    assert exact[b.task_id].finish == Fraction(13, 2)
    assert exact[a.task_id].energy_joules == 9  # 3 cycles at E = 3
    assert exact[b.task_id].energy_joules == 5


@pytest.mark.parametrize("policy", ["lmc", "olb"])
def test_golden_online_runs_within_bound(policy):
    trace = generate_judge_trace(JudgeTraceConfig(
        duration_s=120.0, n_interactive=1500, n_noninteractive=40, seed=5))
    sched = (LMCOnlineScheduler(TABLE_II, 4, 0.4, 0.1) if policy == "lmc"
             else OLBOnlineScheduler(TABLE_II, 4))
    tracer, result = _traced(trace, sched, TABLE_II)
    errors = exact_sim.online_errors(tracer, trace, result, TABLE_II)
    assert len(errors) == len(trace)
    assert exact_sim.violations(errors) == []
    # a few clock ulps, far inside the bound
    assert max(e.worst_ulps for e in errors) <= 4
    exact = exact_sim.replay_online(tracer, trace, TABLE_II)
    assert exact_sim.total_energy_error(result.records, exact, result.energy_joules) < 1e-13


def test_batch_run_within_bound_and_a_drift_is_flagged():
    plan = olb_plan(list(lognormal_batch(200, seed=3)), TABLE_II, 4)
    result = run_batch(plan, TABLE_II)
    errors = exact_sim.batch_errors(plan, TABLE_II, result)
    assert exact_sim.violations(errors) == []
    # a record finishing one residue plus a few thousand ulps late is not
    # rounding any more
    record = result.records[len(result.records) // 2]
    late = record.finish * (1 + 1e-8)
    records = [dataclasses.replace(r, finish=late) if r is record else r
               for r in result.records]
    drifted = dataclasses.replace(result, records=records)
    flagged = exact_sim.violations(exact_sim.batch_errors(plan, TABLE_II, drifted))
    assert len(flagged) == 1 and f"task {record.task.task_id}:" in flagged[0]


def test_online_energy_drift_is_flagged():
    trace = [Task(cycles=8.0, arrival=0.0, kind=TaskKind.NONINTERACTIVE)]
    tracer, result = _traced(trace, OLBOnlineScheduler(EXACT, 1), EXACT)
    record = result.records[0]
    heavier = dataclasses.replace(record, energy_joules=record.energy_joules * (1 + 1e-6))
    drifted = dataclasses.replace(result, records=[heavier])
    errors = exact_sim.online_errors(tracer, trace, drifted, EXACT)
    assert errors[0].energy_ulps > errors[0].bound_ulps
    assert exact_sim.violations(errors)


def test_bound_is_clock_ulps_plus_residue():
    task = Task(cycles=1e-3)
    x = exact_sim.ideal_batch([CoreSchedule([Placement(task, 1.0)])], EXACT)[task.task_id]
    finish = 1e6
    residue = exact_sim.residue_seconds(task, x, finish)
    assert residue > 0
    assert exact_sim.record_bound(finish, 3, residue) == (
        exact_sim.ULPS_PER_STEP * 3 * math.ulp(finish) + residue)
