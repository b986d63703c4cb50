"""Differential checks: fast implementations vs. naive specifications.

Each check pairs one of the paper's fast algorithms with its brute-force
or from-scratch reference and compares them on a randomized instance:

* ``dominating`` — Algorithm 1's ``Θ(|P|)`` hull pass vs. the
  ``O(n·|P|)`` per-position argmin scan, sampled densely at small
  positions and around every range boundary;
* ``wbg`` — Workload Based Greedy vs. exhaustive assignment search
  (Theorem 5) plus the Equation 8 ≡ Equation 13 identity and, on
  homogeneous platforms, Theorem 4's round-robin equivalence;
* ``wbg_kernel`` — the heap-loop oracle of Algorithm 3
  (:mod:`repro.verify.reference`) vs. the production merge kernel: the
  plans, traced and untraced, must match **exactly** (cores, slots, and
  bitwise-equal rates), and so must every traced ``wbg.slot_pick``
  against the oracle's heap pop;
* ``dynamic`` — the incremental ``DynamicCostIndex`` vs. a
  rebuild-from-scratch ``NaiveCostIndex`` over a random insert/delete
  sequence, including the internal aggregate audit;
* ``lmc`` — the online policy's incremental marginal costs and core
  choice vs. naive recomputation;
* ``online`` — every online policy (LMC, OLB, SJF, ondemand-RR) run
  through the event simulator on one trace, audited by the
  conservation-law invariant checker;
* ``online_extreme`` — LMC, OLB and On-demand (with governors) on
  traces at the simulator's boundaries: cycle counts from 1e-6 to 1e9,
  identical arrival instants, zero-gap bursts, all-interactive storms
  and arrivals landing exactly on completion instants; every task must
  complete once, the per-task energy must sum to the run's, no task may
  finish sooner than it ran, and only non-interactive tasks may be
  preempted.

A check's ``run(case)`` returns a list of human-readable failure
messages (empty = agreement). Cases are JSON-able dicts produced by
:mod:`repro.verify.generators`; :func:`replay` re-runs a pinned case
and raises, which is what shrunk regression tests call.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, Sequence

from repro.core.batch_multi import (
    WorkloadBasedGreedy,
    brute_force_multi_core,
    schedule_homogeneous_round_robin,
)
from repro.core.dominating import DominatingRanges
from repro.core.dynamic import DynamicCostIndex, NaiveCostIndex
from repro.core.online_lmc import LeastMarginalCostPolicy
from repro.governors import OnDemandGovernor
from repro.models.cost import CostModel
from repro.models.task import Task, TaskKind
from repro.models.tolerances import ABS_TOL, AGG_ABS_TOL, REL_TOL
from repro.obs.tracer import RecordingTracer
from repro.schedulers.lmc import LMCOnlineScheduler
from repro.schedulers.olb import OLBOnlineScheduler
from repro.schedulers.ondemand_rr import OnDemandRoundRobinScheduler
from repro.schedulers.sjf import SJFMaxRateScheduler
from repro.simulator.online_runner import run_online
from repro.simulator.platform import finish_tolerance
from repro.verify import generators as gen
from repro.verify.invariants import check_batch_schedules, check_dynamic_index, check_online_result
from repro.verify.reference import wbg_heap_picks, wbg_heap_plan

#: Range boundaries beyond this are not brute-force verified (the scan
#: is O(|P|) per position, but boundaries can sit at ~1e12 under extreme
#: Re/Rt ratios; positions that large never occur in real queues).
_MAX_VERIFIED_POSITION = 10_000_000


def _isclose(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=AGG_ABS_TOL)


class DifferentialCheck:
    """One fast-vs-reference comparison over randomized instances."""

    name: str = ""
    #: case keys holding shrinkable lists
    list_keys: tuple[str, ...] = ()

    def generate(self, rng: random.Random) -> dict:
        raise NotImplementedError

    def run(self, case: dict) -> list[str]:
        raise NotImplementedError

    # -- shrinking ----------------------------------------------------------
    def shrink_candidates(self, case: dict) -> Iterator[dict]:
        """Structurally smaller variants of ``case``, larger cuts first."""
        for key in self.list_keys:
            seq = case.get(key) or []
            n = len(seq)
            for chunk in (n // 2, n // 4, 1):
                if chunk < 1:
                    continue
                for start in range(0, n, chunk):
                    smaller = seq[:start] + seq[start + chunk:]
                    if len(smaller) < n:
                        yield {**case, key: smaller}
        if "tables" in case and len(case["tables"]) > 1:
            for keep in range(len(case["tables"])):
                yield {**case, "tables": [case["tables"][keep]]}
        for tkey in ("table", "tables"):
            if tkey not in case:
                continue
            specs = [case[tkey]] if tkey == "table" else case[tkey]
            for si, spec in enumerate(specs):
                if len(spec["rates"]) <= 1:
                    continue
                for drop in range(len(spec["rates"])):
                    slim = {
                        "rates": spec["rates"][:drop] + spec["rates"][drop + 1:],
                        "energy": spec["energy"][:drop] + spec["energy"][drop + 1:],
                        "time": spec["time"][:drop] + spec["time"][drop + 1:],
                    }
                    if tkey == "table":
                        yield {**case, "table": slim}
                    else:
                        tables = list(specs)
                        tables[si] = slim
                        yield {**case, "tables": tables}
        for pkey in ("re", "rt"):
            if case.get(pkey) not in (None, 1.0):
                yield {**case, pkey: 1.0}


# ---------------------------------------------------------------------------
# Algorithm 1 vs argmin scan
# ---------------------------------------------------------------------------

class DominatingCheck(DifferentialCheck):
    name = "dominating"

    def generate(self, rng: random.Random) -> dict:
        re, rt = gen.gen_pricing(rng)
        return {"table": gen.gen_table_dict(rng), "re": re, "rt": rt}

    def run(self, case: dict) -> list[str]:
        model = CostModel(gen.table_from_dict(case["table"]), case["re"], case["rt"])
        ranges = DominatingRanges.from_cost_model(model)
        failures: list[str] = []

        rates = set(model.table.rates)
        if not set(ranges.effective_rates) <= rates:
            failures.append(f"effective rates {ranges.effective_rates} not a subset of table")

        positions = set(range(1, 26))
        for r in ranges.ranges:
            for b in (r.lo - 1, r.lo, r.lo + 1):
                if 1 <= b <= _MAX_VERIFIED_POSITION:
                    positions.add(b)
        for kb in sorted(positions):
            fast_rate, fast_cost = ranges.rate_and_cost(kb)
            ref_rate, ref_cost = model.best_rate_backward(kb)
            if fast_rate != ref_rate:
                failures.append(
                    f"kb={kb}: Algorithm 1 rate {fast_rate!r} != argmin rate {ref_rate!r}"
                )
            elif not _isclose(fast_cost, ref_cost):
                failures.append(
                    f"kb={kb}: CB* mismatch {fast_cost!r} != {ref_cost!r}"
                )
        return failures


# ---------------------------------------------------------------------------
# WBG vs exhaustive search
# ---------------------------------------------------------------------------

class WbgCheck(DifferentialCheck):
    name = "wbg"
    list_keys = ("cycles",)

    def generate(self, rng: random.Random) -> dict:
        n_cores = rng.randint(1, 3)
        re, rt = gen.gen_pricing(rng)
        return {
            "tables": gen.gen_tables(rng, n_cores),
            "re": re,
            "rt": rt,
            "cycles": gen.gen_cycles(rng, rng.randint(0, 5)),
        }

    def run(self, case: dict) -> list[str]:
        models = gen.models_from_case(case)
        tasks = [Task(cycles=c) for c in case["cycles"]]
        wbg = WorkloadBasedGreedy(models)
        schedules = wbg.schedule(tasks)
        failures = [str(v) for v in check_batch_schedules(schedules, models, tasks).violations]

        # Equation 8 (direct walk) vs Σ C*·L (Equation 13 / Lemma 1)
        direct = wbg.schedule_cost(schedules).total_cost
        positional = wbg.optimal_cost(tasks)
        if not _isclose(direct, positional):
            failures.append(f"Eq.8 total {direct!r} != Σ C*·L {positional!r}")

        # Theorem 5: greedy == exhaustive assignment search
        if len(tasks) <= 5:
            brute = brute_force_multi_core(tasks, models)
            if tasks and not _isclose(positional, brute):
                failures.append(f"WBG Σ C*·L {positional!r} != brute force {brute!r}")

        # Theorem 4: homogeneous round-robin equivalence
        if all(spec == case["tables"][0] for spec in case["tables"]):
            rr = schedule_homogeneous_round_robin(
                tasks, models[0], len(models), ranges=wbg.ranges[0]
            )
            rr_cost = sum(models[0].core_cost(s).total_cost for s in rr)
            if not _isclose(direct, rr_cost):
                failures.append(f"WBG {direct!r} != homogeneous round-robin {rr_cost!r}")
        return failures


# ---------------------------------------------------------------------------
# WBG heap-loop oracle vs the production merge kernel
# ---------------------------------------------------------------------------

class WbgKernelCheck(DifferentialCheck):
    name = "wbg_kernel"
    list_keys = ("cycles",)

    def generate(self, rng: random.Random) -> dict:
        n_cores = rng.randint(1, 4)
        re, rt = gen.gen_pricing(rng)
        # bigger batches than WbgCheck (no brute force here) so the
        # merge regularly spans several dominating ranges per core
        n_tasks = rng.choice((1, 2, rng.randint(3, 30), rng.randint(60, 90)))
        return {
            "tables": gen.gen_tables(rng, n_cores),
            "re": re,
            "rt": rt,
            "cycles": gen.gen_cycles(rng, n_tasks),
        }

    @staticmethod
    def _plan_key(schedules) -> list[tuple[int, tuple[tuple[float, float], ...]]]:
        return [
            (s.core_index, tuple((p.task.cycles, p.rate) for p in s.placements))
            for s in schedules
        ]

    def run(self, case: dict) -> list[str]:
        models = gen.models_from_case(case)
        tasks = [Task(cycles=c) for c in case["cycles"]]
        oracle = self._plan_key(wbg_heap_plan(models, tasks))
        tracer = RecordingTracer()
        failures: list[str] = []
        for label, tr in (("untraced", None), ("traced", tracer)):
            wbg = WorkloadBasedGreedy(models, tracer=tr)
            plan = self._plan_key(wbg.schedule(tasks))
            if plan == oracle:
                continue
            failures += [
                f"{label} core {jm}: merge plan {pm!r} != heap plan {ph!r}"
                for (jm, pm), (_, ph) in zip(plan, oracle) if pm != ph
            ] or [f"{label} plan shapes differ: {plan!r} != {oracle!r}"]

        # every traced slot pick against the heap pop it replays
        pops = wbg_heap_picks(wbg.ranges, len(tasks))
        picks = tracer.by_kind("wbg.slot_pick")
        if len(picks) != len(pops):
            failures.append(f"{len(picks)} wbg.slot_pick events for {len(pops)} heap pops")
        next_slot = [1] * len(models)
        for i, (event, (j, kb, rate, cost)) in enumerate(zip(picks, pops)):
            heap_state = [[c, k, wbg.ranges[c].cost(k)] for c, k in enumerate(next_slot)]
            d = event.data
            got = (d["core"], d["slot"], d["rate"], d["positional_cost"], d["candidates"])
            want = (j, kb, rate, cost, heap_state)
            if got != want:
                failures.append(f"slot pick {i}: merge {got!r} != heap {want!r}")
                break
            next_slot[j] = kb + 1

        heavy_first = sorted(case["cycles"], reverse=True)
        cost_heap = sum(c * L for (_, _, _, c), L in zip(pops, heavy_first))
        cost_merge = wbg.optimal_cost(tasks)
        if not _isclose(cost_heap, cost_merge):
            failures.append(f"Σ C*·L heap {cost_heap!r} != merge {cost_merge!r}")
        return failures


# ---------------------------------------------------------------------------
# dynamic index vs rebuild-from-scratch
# ---------------------------------------------------------------------------

class DynamicCheck(DifferentialCheck):
    name = "dynamic"
    list_keys = ("ops",)

    def generate(self, rng: random.Random) -> dict:
        re, rt = gen.gen_pricing(rng)
        return {
            "table": gen.gen_table_dict(rng),
            "re": re,
            "rt": rt,
            "ops": gen.gen_ops(rng, rng.randint(1, 40)),
        }

    def run(self, case: dict) -> list[str]:
        model = CostModel(gen.table_from_dict(case["table"]), case["re"], case["rt"])
        fast = DynamicCostIndex(model)
        naive = NaiveCostIndex(model, fast.ranges)
        live: list = []  # (node, value) in insertion order
        failures: list[str] = []

        for step, op in enumerate(case["ops"]):
            if op[0] == "i":
                node = fast.insert(op[1])
                naive.insert(op[1])
                live.append((node, op[1]))
            else:
                if not live:
                    continue
                node, value = live.pop(op[1] % len(live))
                fast.delete(node)
                naive.delete(value)
            if len(fast) != len(naive):
                failures.append(f"step {step}: size {len(fast)} != {len(naive)}")
                break
            if not _isclose(fast.total_cost, naive.total_cost):
                failures.append(
                    f"step {step} ({op!r}): incremental cost {fast.total_cost!r} "
                    f"!= from-scratch {naive.total_cost!r}"
                )
                break
            if step % 5 == 0:
                probe = op[1] if op[0] == "i" else 1.0
                m_fast = fast.marginal_insert_cost(probe)
                m_naive = naive.marginal_insert_cost(probe)
                # a marginal is a difference of totals, so its float error
                # scales with the total's magnitude, not the marginal's
                scale = max(abs(m_fast), abs(m_naive), abs(fast.total_cost))
                if abs(m_fast - m_naive) > max(AGG_ABS_TOL, REL_TOL * scale):
                    failures.append(
                        f"step {step}: marginal({probe!r}) {m_fast!r} != {m_naive!r}"
                    )
                    break
            if step % 7 == 0:
                failures.extend(
                    f"step {step}: {v}" for v in check_dynamic_index(fast).violations
                )
                if failures:
                    break
        failures.extend(f"final: {v}" for v in check_dynamic_index(fast).violations)
        return failures


# ---------------------------------------------------------------------------
# LMC policy vs naive marginal costs
# ---------------------------------------------------------------------------

class LmcCheck(DifferentialCheck):
    name = "lmc"
    list_keys = ("events",)

    def generate(self, rng: random.Random) -> dict:
        n_cores = rng.randint(1, 3)
        re, rt = gen.gen_pricing(rng)
        events: list[list] = []
        for c in gen.gen_cycles(rng, rng.randint(1, 25)):
            if events and rng.random() < 0.3:
                events.append(["p", rng.randint(0, 2 * n_cores)])
            events.append(["a", c])
        return {"tables": gen.gen_tables(rng, n_cores), "re": re, "rt": rt,
                "events": events}

    def run(self, case: dict) -> list[str]:
        models = gen.models_from_case(case)
        n = len(models)
        policy = LeastMarginalCostPolicy(models)
        naive = [NaiveCostIndex(m, policy.ranges[j]) for j, m in enumerate(models)]
        vals: list[list[float]] = [[] for _ in range(n)]
        failures: list[str] = []

        for step, ev in enumerate(case["events"]):
            if ev[0] == "a":
                c = ev[1]
                margins = [naive[j].marginal_insert_cost(c) for j in range(n)]
                j_fast = policy.choose_core_noninteractive(c)
                best = min(margins)
                # margins are differences of queue totals; tolerate float
                # error at the scale of the largest queue total involved
                scale = max([abs(best)] + [q.total_cost for q in naive])
                slack = max(AGG_ABS_TOL, REL_TOL * scale)
                if margins[j_fast] > best + slack:
                    failures.append(
                        f"step {step}: chose core {j_fast} (naive marginal "
                        f"{margins[j_fast]!r}) but min is {best!r}"
                    )
                    break
                node = policy.enqueue(j_fast, c)
                naive[j_fast].insert(c)
                vals[j_fast].append(c)
                kb = policy.queues[j_fast].backward_position(node)
                want = policy.ranges[j_fast].rate_for(kb)
                got = policy.queues[j_fast].rate_of(node)
                if got != want:
                    failures.append(f"step {step}: rate_of kb={kb} {got!r} != {want!r}")
                    break
            else:
                j = ev[1] % n
                before = len(vals[j])
                popped = policy.pop_head(j)
                if popped is None:
                    if before != 0:
                        failures.append(f"step {step}: core {j} empty but naive has {before}")
                        break
                    continue
                _, cycles, rate = popped
                head = min(vals[j])
                if cycles != head:
                    failures.append(
                        f"step {step}: popped cycles {cycles!r} != queue minimum {head!r}"
                    )
                    break
                want = policy.ranges[j].rate_for(before)  # head sits at backward position N
                if rate != want:
                    failures.append(f"step {step}: popped rate {rate!r} != {want!r}")
                    break
                vals[j].remove(cycles)
                naive[j].delete(cycles)
            for j in range(n):
                if policy.waiting_count(j) != len(vals[j]):
                    failures.append(
                        f"step {step}: core {j} count {policy.waiting_count(j)} "
                        f"!= {len(vals[j])}"
                    )
                    return failures
                if not _isclose(policy.queued_cost(j), naive[j].total_cost):
                    failures.append(
                        f"step {step}: core {j} queued cost {policy.queued_cost(j)!r} "
                        f"!= naive {naive[j].total_cost!r}"
                    )
                    return failures
        return failures


# ---------------------------------------------------------------------------
# online runner conservation across every policy
# ---------------------------------------------------------------------------

class OnlineCheck(DifferentialCheck):
    name = "online"
    list_keys = ("trace",)

    POLICIES = ("lmc", "olb", "sjf", "odrr")

    def generate(self, rng: random.Random) -> dict:
        n_cores = rng.randint(1, 3)
        return {
            "tables": gen.gen_tables(rng, n_cores),
            "re": rng.uniform(0.05, 5.0),
            "rt": rng.uniform(0.05, 5.0),
            "trace": gen.gen_trace_dicts(rng, rng.randint(1, 30)),
        }

    def _make_policy(self, name: str, tables, n_cores: int, re: float, rt: float):
        if name == "lmc":
            return LMCOnlineScheduler(tables, n_cores, re, rt), None
        if name == "olb":
            return OLBOnlineScheduler(tables, n_cores), None
        if name == "sjf":
            return SJFMaxRateScheduler(tables, n_cores), None
        if name == "odrr":
            return (OnDemandRoundRobinScheduler(n_cores),
                    [OnDemandGovernor(t) for t in tables])
        raise ValueError(f"unknown policy {name!r}")

    def run(self, case: dict) -> list[str]:
        tables = [gen.table_from_dict(spec) for spec in case["tables"]]
        n_cores = len(tables)
        trace = gen.trace_from_dicts(case["trace"])
        failures: list[str] = []
        for name in self.POLICIES:
            policy, governors = self._make_policy(
                name, tables, n_cores, case["re"], case["rt"]
            )
            try:
                result = run_online(trace, policy, tables, governors=governors)
            except Exception as exc:  # a crash is a finding, not a fuzzer error
                failures.append(f"{name}: run_online raised {type(exc).__name__}: {exc}")
                continue
            report = check_online_result(trace, result, n_cores, tables)
            failures.extend(f"{name}: {v}" for v in report.violations)
            if name == "lmc":
                leftover = [policy.policy.waiting_count(j) for j in range(n_cores)]
                if any(leftover):
                    failures.append(f"lmc: queues not drained at end: {leftover}")
        return failures


class OnlineExtremeCheck(OnlineCheck):
    """The online runner at its boundaries, under LMC, OLB and On-demand.

    Every run is audited by :func:`check_online_result`, unchanged, with
    one exception. Its two physical-bound checks (``record-energy-bounds``,
    ``record-busy-bounds``) give a fixed 1e-9 absolute slack, and at these
    boundaries a correct run falls short of the lower bounds by more: the
    simulator drops up to :func:`~repro.simulator.platform.finish_tolerance`
    cycles of residue at each completion, which is ``CYCLE_EPS`` of a
    sub-gigacycle task or a clock ulp of ~1e-7 s at a clock of 1e9 s.
    This check re-judges exactly those two bounds with the dropped
    residue's worth taken off the lower bound (:meth:`_bound_violations`);
    the upper bounds keep the audit's slack.
    """

    name = "online_extreme"

    POLICIES = ("lmc", "olb", "odrr")
    #: Governor ticks per core are capped near this many per run: a
    #: 1e9-cycle task runs for up to ~1e10 simulated seconds, so the
    #: paper's 1 s sampling period would tick billions of times.
    TICKS_PER_RUN = 256
    #: Audit checks this check re-judges in :meth:`_bound_violations`.
    REJUDGED = frozenset({"record-energy-bounds", "record-busy-bounds"})

    def generate(self, rng: random.Random) -> dict:
        style = rng.choice(gen.EXTREME_STYLES)
        n_cores = rng.randint(1, 3)
        if style == "on-completion":
            tables = [gen.DYADIC_TABLE for _ in range(n_cores)]
        else:
            tables = gen.gen_tables(rng, n_cores)
        re, rt = gen.gen_pricing(rng)
        return {
            "style": style,
            "tables": tables,
            "re": re,
            "rt": rt,
            "trace": gen.gen_extreme_trace_dicts(rng, rng.randint(1, 24), style),
        }

    def run(self, case: dict) -> list[str]:
        tables = [gen.table_from_dict(spec) for spec in case["tables"]]
        n_cores = len(tables)
        trace = gen.trace_from_dicts(case["trace"])
        # the longest the run can take: everything serialised at the
        # slowest rate of any core, after the last arrival
        slowest = max(t.time(t.min_rate) for t in tables)
        span = max((t.arrival for t in trace), default=0.0) + slowest * math.fsum(
            t.cycles for t in trace)
        period = max(1.0, span / self.TICKS_PER_RUN)
        failures: list[str] = []
        for name in self.POLICIES:
            policy, governors = self._make_policy(
                name, tables, n_cores, case["re"], case["rt"]
            )
            for gov in governors or ():
                gov.sampling_period = period
            try:
                result = run_online(trace, policy, tables, governors=governors)
            except Exception as exc:  # a crash is a finding, not a fuzzer error
                failures.append(f"{name}: run_online raised {type(exc).__name__}: {exc}")
                continue
            report = check_online_result(trace, result, n_cores, tables)
            failures.extend(f"{name}: {v}" for v in report.violations
                            if v.check not in self.REJUDGED)
            failures.extend(f"{name}: {v}" for v in self._bound_violations(result, tables))
            failures.extend(f"{name}: {v}" for v in self._extreme_violations(result))
            if governors is None and result.events != 2 * len(trace):
                failures.append(f"{name}: {result.events} events for {len(trace)} tasks; "
                                "want one arrival and one completion each")
        return failures

    @staticmethod
    def _bound_violations(result, tables) -> list[str]:
        """The audit's energy and busy-time bounds, with the lower bounds
        lowered by the residue the simulator may drop at completion.

        Every cycle a task ran cost at least ``E(pmin)`` and ``T(pmax)``,
        so dropping ``r`` cycles takes at most ``r·E(pmin)`` and
        ``r·T(pmax)`` off the exact minimum; ``r`` is largest at the
        fastest rate, the one with the smallest seconds per cycle.
        """
        out = []
        for r in result.records:
            table = tables[r.core]
            e_min, t_min = table.energy(table.min_rate), table.time(table.max_rate)
            residue = finish_tolerance(r.task.cycles, r.finish, t_min)
            lo_e, hi_e = r.task.cycles * e_min, r.task.cycles * table.energy(table.max_rate)
            if not (lo_e * (1 - REL_TOL) - ABS_TOL - residue * e_min
                    <= r.energy_joules <= hi_e * (1 + REL_TOL) + ABS_TOL):
                out.append(f"[record-energy-bounds] task {r.task.task_id}: energy "
                           f"{r.energy_joules!r} outside [{lo_e!r}, {hi_e!r}] "
                           f"less {residue!r} cycles")
            lo_t, hi_t = r.task.cycles * t_min, r.task.cycles * table.time(table.min_rate)
            if not (lo_t * (1 - REL_TOL) - ABS_TOL - residue * t_min
                    <= r.busy_seconds <= hi_t * (1 + REL_TOL) + AGG_ABS_TOL):
                out.append(f"[record-busy-bounds] task {r.task.task_id}: busy "
                           f"{r.busy_seconds!r} outside [{lo_t!r}, {hi_t!r}] "
                           f"less {residue!r} cycles")
        return out

    @staticmethod
    def _extreme_violations(result) -> list[str]:
        """What the online audit does not cover; it already checks that
        every task completes once and that the task energy sums to the
        run's."""
        out = []
        for r in result.records:
            # busy time sums one clock difference per interval the task
            # ran, so it rounds relative to that sum
            if r.turnaround + AGG_ABS_TOL + REL_TOL * r.busy_seconds < r.busy_seconds:
                out.append(f"task {r.task.task_id}: turnaround {r.turnaround!r} "
                           f"< busy {r.busy_seconds!r}")
            if r.preemptions and r.task.kind is not TaskKind.NONINTERACTIVE:
                out.append(f"task {r.task.task_id}: {r.task.kind.value} task "
                           f"preempted {r.preemptions}x")
        return out


# ---------------------------------------------------------------------------
# registry + replay
# ---------------------------------------------------------------------------

ALL_CHECKS: dict[str, DifferentialCheck] = {
    c.name: c
    for c in (DominatingCheck(), WbgCheck(), WbgKernelCheck(), DynamicCheck(),
              LmcCheck(), OnlineCheck(), OnlineExtremeCheck())
}


def run_case(name: str, case: dict) -> list[str]:
    """Run one pinned case; unhandled exceptions become failures."""
    check = ALL_CHECKS[name]
    try:
        return check.run(case)
    except Exception as exc:
        return [f"unhandled {type(exc).__name__}: {exc}"]


def replay(name: str, case: dict) -> None:
    """Re-run a pinned fuzz case, raising on any divergence.

    Shrunk regression tests call this — the printed repro from
    ``python -m repro fuzz`` is a one-line ``replay(...)`` invocation.
    """
    failures = run_case(name, case)
    if failures:
        detail = "\n  ".join(failures)
        raise AssertionError(f"differential check {name!r} diverged:\n  {detail}")
