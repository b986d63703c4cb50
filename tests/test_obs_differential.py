"""Tracing must never change a decision: traced ≡ untraced, bit for bit."""

import random

import pytest

from repro.core.dynamic import DynamicCostIndex
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II
from repro.models.task import Task
from repro.obs import NullTracer, RecordingTracer
from repro.schedulers import LMCOnlineScheduler, wbg_plan
from repro.simulator import run_online
from repro.workloads import JudgeTraceConfig, generate_judge_trace, spec_tasks


def plan_key(plan):
    return [
        (s.core_index, [(p.task.task_id, p.task.cycles, p.rate) for p in s.placements])
        for s in plan
    ]


class TestWBGDifferential:
    def test_spec_batch_identical(self):
        tasks = list(spec_tasks("both"))
        base = wbg_plan(tasks, TABLE_II, 4, 0.1, 0.4)
        tracer = RecordingTracer()
        traced = wbg_plan(tasks, TABLE_II, 4, 0.1, 0.4, tracer=tracer)
        assert plan_key(traced) == plan_key(base)
        assert len(tracer.by_kind("wbg.slot_pick")) == len(tasks)

    def test_large_batch_crosses_vector_threshold(self):
        # untraced "auto" takes the vector kernel at this size; traced runs
        # force the scalar loop — the plans must still match exactly
        rng = random.Random(123)
        tasks = [Task(cycles=rng.uniform(0.1, 40.0), name=f"t{i}") for i in range(96)]
        base = wbg_plan(tasks, TABLE_II, 2, 0.1, 0.4)
        tracer = RecordingTracer()
        traced = wbg_plan(tasks, TABLE_II, 2, 0.1, 0.4, tracer=tracer)
        assert plan_key(traced) == plan_key(base)
        assert tracer.by_kind("wbg.schedule")[0].data["kernel"] == "auto"

    def test_null_tracer_matches_none(self):
        tasks = list(spec_tasks("train"))
        base = wbg_plan(tasks, TABLE_II, 2, 0.1, 0.4)
        nulled = wbg_plan(tasks, TABLE_II, 2, 0.1, 0.4, tracer=NullTracer())
        assert plan_key(nulled) == plan_key(base)

    def test_slot_pick_events_are_self_consistent(self):
        tracer = RecordingTracer()
        wbg_plan(list(spec_tasks("train")), TABLE_II, 2, 0.1, 0.4, tracer=tracer)
        for e in tracer.by_kind("wbg.slot_pick"):
            cands = {c[0]: (c[1], c[2]) for c in e.data["candidates"]}
            slot, cost = cands[e.data["core"]]
            assert slot == e.data["slot"]
            assert cost == e.data["positional_cost"]
            # the pick is the global minimum over candidate costs
            assert cost == min(c for _, c in cands.values())


class TestLMCDifferential:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_judge_trace(JudgeTraceConfig(
            n_interactive=60, n_noninteractive=15, duration_s=40.0, seed=11))

    def _run(self, trace, tracer=None):
        scheduler = LMCOnlineScheduler(TABLE_II, 2, 0.4, 0.1, tracer=tracer)
        result = run_online(trace, scheduler, TABLE_II, tracer=tracer)
        return scheduler, result

    def test_traced_run_identical(self, trace):
        _, base = self._run(trace)
        tracer = RecordingTracer()
        scheduler, traced = self._run(trace, tracer=tracer)
        for attr in ("energy_joules", "horizon", "events", "total_preemptions"):
            assert getattr(traced, attr) == getattr(base, attr)
        assert traced.cost(0.4, 0.1).total_cost == base.cost(0.4, 0.1).total_cost
        assert len(tracer.by_kind("lmc.interactive")) == 60
        assert len(tracer.by_kind("lmc.noninteractive")) == 15
        assert len(tracer.by_kind("sim.complete")) == len(trace)

    def test_ops_counters_unchanged_by_tracing(self, trace):
        base_sched, _ = self._run(trace)
        traced_sched, _ = self._run(trace, tracer=RecordingTracer())
        assert traced_sched.counters() == base_sched.counters()


class TestDynamicDifferential:
    def _churn(self, tracer=None):
        index = DynamicCostIndex(CostModel(TABLE_II, 0.1, 0.4), seed=5, tracer=tracer)
        rng = random.Random(5)
        handles = []
        probes = []
        for _ in range(200):
            draw = rng.random()
            if draw < 0.5 or not handles:
                handles.append(index.insert(rng.uniform(0.1, 30.0)))
            elif draw < 0.8:
                index.delete(handles.pop(rng.randrange(len(handles))))
            else:
                probes.append(index.marginal_insert_cost(rng.choice((1.0, 2.0, 8.0))))
        return index, probes

    def test_traced_churn_identical(self):
        base_index, base_probes = self._churn()
        tracer = RecordingTracer()
        traced_index, traced_probes = self._churn(tracer=tracer)
        assert traced_probes == base_probes
        assert traced_index.total_cost == base_index.total_cost
        assert dict(traced_index.counters) == dict(base_index.counters)
        # one event per mutation and per probe (a probe mutates nothing)
        assert len(tracer.by_kind("dynamic.insert")) == traced_index.counters["inserts"]
        assert len(tracer.by_kind("dynamic.delete")) == traced_index.counters["deletes"]
        assert len(tracer.by_kind("dynamic.probe")) == traced_index.counters["probes"]
