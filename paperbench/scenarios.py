"""The benchmark's workloads: seeded inputs, one timed repetition, output checks.

Each workload crosses a different mix of the program's layers (module
names as in docs/ARCHITECTURE.md):

* ``fig3_paper`` — Section V-B at the paper's scale: the Judgegirl-style
  trace (50 525 interactive + 768 judging tasks over 1800 s) scheduled
  by LMC through the event-driven simulator, then priced. Interactive
  arrivals dominate, so Equation 27 and the simulator carry the run.
* ``lmc_deep_queue`` — judging arrivals outpace the platform for the
  whole trace, so each core's LMC waiting queue grows past 10^3 tasks:
  the dynamic cost index (Algorithms 4-6) carries the run.
* ``fig2_scale`` — Section V-A batch mode at scale: 20 000 Table I jobs
  planned by WBG (Algorithms 1 and 3), OLB and PS, each plan run
  through the batch simulator and priced. No online policy and no
  dynamic index are involved.

Span names, by layer: ``policy.*`` — calls into the schedulers (the
``OnlinePolicy`` methods, the batch plan builders); ``kernel.*`` — the
cost kernels a policy consults (``core/dynamic.py`` index operations,
``models/vectorized.py``), always children of a policy span; ``sim`` —
the simulator, whose self time excludes the policy calls it makes;
``price`` — cost pricing (``models/cost.py``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import repro.models.vectorized as vectorized
from repro.core.batch_multi import WorkloadBasedGreedy
from repro.core.dynamic import NaiveCostIndex
from repro.governors import OnDemandGovernor
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II
from repro.models.task import Task
from repro.models.tolerances import AGG_ABS_TOL, REL_TOL
from repro.schedulers import (
    LMCOnlineScheduler,
    OLBOnlineScheduler,
    OnDemandRoundRobinScheduler,
    olb_plan,
    power_saving_plan,
    wbg_plan,
)
from repro.simulator import run_batch, run_online
from repro.simulator.platform import SimCore
from repro.verify.invariants import InvariantReport, check_batch_schedules, check_online_result
from repro.workloads import JudgeTraceConfig, generate_judge_trace, generate_open_loop_trace
from repro.workloads.spec import spec_cycles

N_CORES = 4
#: Paper pricing (cents per joule, cents per second): Fig. 2 and Fig. 3.
RE_BATCH, RT_BATCH = 0.1, 0.4
RE_ONLINE, RT_ONLINE = 0.4, 0.1

#: Deep-queue trace: 8 judging jobs/s (median 15 Gcycles) against a
#: platform that drains ~1/s, plus 10 queries/s, for 1000 s.
DEEP_DURATION_S = 1000.0
DEEP_QUERIES_PER_S = 10.0
DEEP_JOBS_PER_S = 8.0
#: The deepest per-core queue the deep-queue trace must reach.
DEEP_MIN_DEPTH = 1000
#: Every this-many-th marginal probe is re-derived by the naive index.
ORACLE_EVERY = 251

#: Batch size of the scaled Figure 2 workload.
FIG2_TASKS = 20_000


@dataclass
class Outcome:
    """What one repetition produced.

    ``digest`` holds the exact outputs every repetition must reproduce;
    ``detail`` is what :meth:`Workload.check` inspects (only the last
    repetition's is kept).
    """

    tasks: int
    completed: int
    digest: tuple
    events: int
    depth: int
    detail: Any


def _violations(report: InvariantReport) -> list[str]:
    return [f"{report.subject}: {v}" for v in report.violations[:5]]


# ---------------------------------------------------------------------------
# online: LMC through the event-driven simulator
# ---------------------------------------------------------------------------

class _PolicySpans:
    """``OnlinePolicy`` proxy that opens one ``policy.*`` span per call."""

    METHODS = ("select_core", "enqueue_noninteractive", "dequeue_noninteractive",
               "rate_for_noninteractive", "rate_for_interactive", "on_complete")

    def __init__(self, inner: Any, spans: Any) -> None:
        self.n_cores = inner.n_cores
        for method in self.METHODS:
            fn = getattr(inner, method, None)
            if fn is not None:
                setattr(self, method, spans.wrap(f"policy.{method}", fn))


def _track_depth(sched: LMCOnlineScheduler) -> list[int]:
    """Record the deepest waiting queue LMC builds; returns a 1-cell holder."""
    core, deepest = sched.policy, [0]
    enqueue = core.enqueue

    def enqueue_tracked(j: int, cycles: float, payload: Any = None) -> Any:
        node = enqueue(j, cycles, payload)
        deepest[0] = max(deepest[0], len(core.queues[j]))
        return node

    core.enqueue = enqueue_tracked  # type: ignore[method-assign]
    return deepest


def _spanned_lmc(sched: LMCOnlineScheduler, spans: Any) -> tuple[Any, Optional[list[int]]]:
    """The policy to hand the simulator, plus the depth holder when traced."""
    if not spans.enabled:
        return sched, None
    for q in sched.policy.queues:
        q.insert = spans.wrap("kernel.insert", q.insert)
        q.delete = spans.wrap("kernel.delete", q.delete)
        q.marginal_insert_cost = spans.wrap("kernel.probe", q.marginal_insert_cost)
        q.rate_of = spans.wrap("kernel.rank", q.rate_of)
    return _PolicySpans(sched, spans), _track_depth(sched)


def _online_digest(result: Any, cost: Any) -> tuple:
    return (cost.total_cost, cost.energy_joules, result.horizon,
            result.events, result.total_preemptions)


def _lmc_rep(trace: Sequence[Task], spans: Any, clock: Any) -> Outcome:
    with spans.span("policy.build"):
        sched = LMCOnlineScheduler(TABLE_II, N_CORES, RE_ONLINE, RT_ONLINE)
    policy, deepest = _spanned_lmc(sched, spans)
    policy.select_core = clock.counting(policy.select_core)
    with spans.patch(vectorized, "interactive_marginal_batch", "kernel.eq27"), spans.span("sim"):
        result = run_online(trace, policy, TABLE_II)
    with spans.span("price"):
        cost = result.cost(RE_ONLINE, RT_ONLINE)
    return Outcome(
        tasks=len(trace),
        completed=len(result.records),
        digest=_online_digest(result, cost),
        events=result.events,
        depth=deepest[0] if deepest else 0,
        detail=(result, cost),
    )


def _online_failures(trace: Sequence[Task], result: Any, cost: Any, label: str) -> list[str]:
    """Conservation laws, plus the pricing re-derived from the task records."""
    fails = [f"{label} {v}" for v in _violations(check_online_result(trace, result, N_CORES, TABLE_II))]
    turnaround = math.fsum(r.finish - r.task.arrival for r in result.records)
    energy = math.fsum(r.energy_joules for r in result.records)
    want = RE_ONLINE * energy + RT_ONLINE * turnaround
    if not math.isclose(cost.total_cost, want, rel_tol=REL_TOL, abs_tol=AGG_ABS_TOL):
        fails.append(f"{label} priced {cost.total_cost!r}, records give {want!r}")
    return fails


class Workload:
    """A named workload: seeded inputs, one repetition, and its checks."""

    name = ""
    #: The span whose per-call durations are the decision latency.
    decide_span = ""
    #: Calls between two clock marks in a repetition (arrivals online,
    #: task starts in batch runs).
    mark_every = 1

    def make_inputs(self, seed: int) -> Any:
        raise NotImplementedError

    def rep(self, inputs: Any, spans: Any, clock: Any) -> Outcome:
        raise NotImplementedError

    def check(self, inputs: Any, last: Outcome) -> list[str]:
        """Failures found in the outputs (untimed; may run reference work)."""
        raise NotImplementedError


class Fig3Paper(Workload):
    name = "fig3_paper"
    decide_span = "policy.select_core"
    mark_every = 1024

    def make_inputs(self, seed: int) -> list[Task]:
        return generate_judge_trace(JudgeTraceConfig(seed=seed))

    def rep(self, trace: list[Task], spans: Any, clock: Any) -> Outcome:
        return _lmc_rep(trace, spans, clock)

    def check(self, trace: list[Task], last: Outcome) -> list[str]:
        result, cost = last.detail
        fails = _online_failures(trace, result, cost, "LMC")
        # Figure 3: LMC costs less than both baselines on the same trace.
        baselines = {
            "OLB": run_online(trace, OLBOnlineScheduler(TABLE_II, N_CORES), TABLE_II),
            "OD": run_online(trace, OnDemandRoundRobinScheduler(N_CORES), TABLE_II,
                             governors=[OnDemandGovernor(TABLE_II) for _ in range(N_CORES)]),
        }
        for label, other in baselines.items():
            other_cost = other.cost(RE_ONLINE, RT_ONLINE)
            fails += _online_failures(trace, other, other_cost, label)
            if not cost.total_cost < other_cost.total_cost:
                fails.append(f"LMC cost {cost.total_cost:.6g} not below {label} "
                             f"{other_cost.total_cost:.6g}")
        return fails


def _oracle_probes(sched: LMCOnlineScheduler, counts: dict[str, int],
                   fails: list[str]) -> None:
    """Re-derive every ``ORACLE_EVERY``-th marginal probe with the naive index.

    At each sampled probe the queue is also audited against a
    from-scratch rebuild of its aggregates (``check_invariants``).
    """
    for q in sched.policy.queues:
        def probe(cycles: float, q: Any = q, fast_probe: Any = q.marginal_insert_cost) -> float:
            fast = fast_probe(cycles)
            counts["probes"] += 1
            if counts["probes"] % ORACLE_EVERY == 0:
                counts["sampled"] += 1
                naive = NaiveCostIndex(q.model, q.ranges)
                for node in q.tree:
                    naive.insert(node.value)
                want = naive.marginal_insert_cost(cycles)
                if not math.isclose(fast, want, rel_tol=REL_TOL, abs_tol=AGG_ABS_TOL):
                    fails.append(f"{q.label} depth {len(q)}: probe({cycles!r}) = {fast!r}, "
                                 f"naive index gives {want!r}")
                try:
                    q.check_invariants()
                except AssertionError as exc:
                    fails.append(f"{q.label} depth {len(q)}: {exc}")
            return fast

        q.marginal_insert_cost = probe


class LmcDeepQueue(Workload):
    name = "lmc_deep_queue"
    decide_span = "policy.select_core"
    mark_every = 256

    def make_inputs(self, seed: int) -> list[Task]:
        return generate_open_loop_trace(DEEP_DURATION_S, DEEP_QUERIES_PER_S,
                                        DEEP_JOBS_PER_S, seed=seed)

    def rep(self, trace: list[Task], spans: Any, clock: Any) -> Outcome:
        return _lmc_rep(trace, spans, clock)

    def check(self, trace: list[Task], last: Outcome) -> list[str]:
        result, cost = last.detail
        fails = _online_failures(trace, result, cost, "LMC")
        # replay with sampled probes checked against the naive index
        sched = LMCOnlineScheduler(TABLE_II, N_CORES, RE_ONLINE, RT_ONLINE)
        counts = {"probes": 0, "sampled": 0}
        _oracle_probes(sched, counts, fails)
        deepest = _track_depth(sched)
        replay = run_online(trace, sched, TABLE_II)
        digest = _online_digest(replay, replay.cost(RE_ONLINE, RT_ONLINE))
        if digest != last.digest:
            fails.append(f"checked replay {digest} differs from timed run {last.digest}")
        if deepest[0] < DEEP_MIN_DEPTH:
            fails.append(f"deepest queue {deepest[0]} < {DEEP_MIN_DEPTH}: trace is not deep")
        if counts["sampled"] == 0:
            fails.append("no marginal probe was sampled")
        return fails


# ---------------------------------------------------------------------------
# batch: Figure 2 at scale
# ---------------------------------------------------------------------------

def _plan_key(plan: Sequence[Any]) -> list[tuple[int, list[tuple[int, float]]]]:
    return [(s.core_index, [(p.task.task_id, p.rate) for p in s.placements]) for s in plan]


class Fig2Scale(Workload):
    name = "fig2_scale"
    decide_span = "policy.wbg"
    mark_every = 1024

    def make_inputs(self, seed: int) -> list[Task]:
        """Table I jobs drawn with replacement, each ±10% off its mean runtime."""
        rng = random.Random(seed)
        menu = sorted(spec_cycles().items())
        tasks = []
        for i in range(FIG2_TASKS):
            name, cycles = rng.choice(menu)
            tasks.append(Task(cycles=cycles * rng.uniform(0.9, 1.1), name=f"{name}#{i}"))
        return tasks

    def rep(self, tasks: list[Task], spans: Any, clock: Any) -> Outcome:
        """Plan with all three schedulers, then run and price each plan.

        The clock marks after every plan and every simulated run, and
        at every 1024th task start inside a run.
        """
        plans = {}
        with spans.patch(vectorized, "wbg_slot_sequence", "kernel.wbg_merge"), \
                spans.span("policy.wbg"):
            plans["WBG"] = wbg_plan(tasks, TABLE_II, N_CORES, RE_BATCH, RT_BATCH)
        clock.mark()
        with spans.span("policy.olb"):
            plans["OLB"] = olb_plan(tasks, TABLE_II, N_CORES)
        clock.mark()
        with spans.span("policy.ps"):
            plans["PS"] = power_saving_plan(tasks, TABLE_II, N_CORES)
        clock.mark()
        costs, completed = {}, 0
        for label, plan in plans.items():
            with clock.patch(SimCore, "start"), spans.span("sim"):
                result = run_batch(plan, TABLE_II)
            clock.mark()
            with spans.span("price"):
                costs[label] = result.cost(RE_BATCH, RT_BATCH)
            completed += len(result.records)
        return Outcome(
            tasks=len(plans) * len(tasks),
            completed=completed,
            digest=tuple((label, c.total_cost, c.energy_joules, c.makespan)
                         for label, c in costs.items()),
            events=completed,
            depth=max(len(s) for s in plans["WBG"]),
            detail=(plans, costs),
        )

    def check(self, tasks: list[Task], last: Outcome) -> list[str]:
        plans, costs = last.detail
        models = [CostModel(TABLE_II, RE_BATCH, RT_BATCH) for _ in range(N_CORES)]
        fails = _violations(check_batch_schedules(plans["WBG"], models, tasks))
        for label in ("OLB", "PS"):
            fails += _violations(check_batch_schedules(
                plans[label], models, tasks, optimal_order=False, dominating_rates=False))
        # Algorithm 3 as written (the heap loop) must plan identically
        scalar = wbg_plan(tasks, TABLE_II, N_CORES, RE_BATCH, RT_BATCH, kernel="scalar")
        if _plan_key(scalar) != _plan_key(plans["WBG"]):
            fails.append("WBG vector plan differs from the scalar Algorithm 3 plan")
        # without contention the simulated run prices exactly as Equation 8
        analytic = WorkloadBasedGreedy(models).schedule_cost(plans["WBG"]).total_cost
        if not math.isclose(costs["WBG"].total_cost, analytic, rel_tol=REL_TOL):
            fails.append(f"simulated WBG cost {costs['WBG'].total_cost!r} != model {analytic!r}")
        # Theorem 5: no plan is cheaper than WBG's
        for label in ("OLB", "PS"):
            if costs["WBG"].total_cost > costs[label].total_cost * (1 + REL_TOL):
                fails.append(f"WBG cost {costs['WBG'].total_cost:.6g} above {label} "
                             f"{costs[label].total_cost:.6g}")
        return fails


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Fig3Paper(), LmcDeepQueue(), Fig2Scale())}
