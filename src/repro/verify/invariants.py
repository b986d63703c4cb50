"""Structural invariant checker for schedules and online runs.

The paper's algorithms make strong structural promises beyond "the cost
is small": every task is scheduled exactly once, each core's queue is
in the non-decreasing cycle order of Theorem 3, every rate is the one
its backward position's dominating range dictates (Lemma 3), and the
reported :class:`~repro.models.cost.ScheduleCost` must re-derive from
first principles. The online runner adds conservation laws: arrivals =
completions + in-flight, and no core is busy for longer than the wall
clock. This module audits any ``CoreSchedule`` list or
``OnlineResult`` against those invariants and reports every violation
(it does not stop at the first), using the shared tolerances of
:mod:`repro.models.tolerances` so verification and production code
cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.dominating import DominatingRanges
from repro.models.cost import CoreSchedule, CostModel
from repro.models.rates import RateTable
from repro.models.task import Task
from repro.models.tolerances import ABS_TOL, AGG_ABS_TOL, REL_TOL
from repro.simulator.online_runner import OnlineResult


class InvariantViolation(AssertionError):
    """Raised by :meth:`InvariantReport.raise_if_failed`."""


@dataclass(frozen=True)
class Violation:
    """One failed invariant: which check, and what it saw."""

    check: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.detail}"


@dataclass
class InvariantReport:
    """Outcome of an audit: every check run, every violation found."""

    subject: str
    checks_run: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, check: str, ok: bool, detail: str = "") -> None:
        self.checks_run += 1
        if not ok:
            self.violations.append(Violation(check=check, detail=detail))

    def merge(self, other: "InvariantReport") -> None:
        self.checks_run += other.checks_run
        self.violations.extend(other.violations)

    def raise_if_failed(self) -> None:
        if not self.ok:
            lines = "\n  ".join(str(v) for v in self.violations)
            raise InvariantViolation(
                f"{self.subject}: {len(self.violations)} invariant violation(s):\n  {lines}"
            )

    def __str__(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"InvariantReport({self.subject}: {self.checks_run} checks, {status})"


def _close(a: float, b: float, abs_tol: float = AGG_ABS_TOL) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# batch schedules
# ---------------------------------------------------------------------------

def check_batch_schedules(
    schedules: Sequence[CoreSchedule],
    models: Sequence[CostModel],
    tasks: Optional[Sequence[Task]] = None,
    *,
    optimal_order: bool = True,
    dominating_rates: bool = True,
) -> InvariantReport:
    """Audit a multi-core batch plan.

    Parameters
    ----------
    schedules:
        One :class:`CoreSchedule` per core (``core_index`` selects the
        model).
    models:
        One :class:`CostModel` per core.
    tasks:
        The workload that was scheduled; when given, the task multiset
        is checked for exact conservation.
    optimal_order:
        Require Theorem 3's non-decreasing cycle order per core. Turn
        off for plans that intentionally do not reorder (e.g. OLB).
    dominating_rates:
        Require each placement's rate to equal the dominating-range
        rate of its backward position (Lemma 3). Turn off for
        fixed-frequency baselines.
    """
    report = InvariantReport(subject="batch-schedules")

    # -- every task scheduled exactly once ---------------------------------
    seen: dict[int, int] = {}
    for sched in schedules:
        for pl in sched:
            seen[pl.task.task_id] = seen.get(pl.task.task_id, 0) + 1
    dupes = {tid: c for tid, c in seen.items() if c > 1}
    report.record("task-scheduled-once", not dupes,
                  f"task_ids scheduled more than once: {sorted(dupes)[:5]}")
    if tasks is not None:
        want = {t.task_id for t in tasks}
        got = set(seen)
        report.record(
            "task-conservation", want == got,
            f"missing={sorted(want - got)[:5]} unexpected={sorted(got - want)[:5]}",
        )

    range_cache: dict[int, DominatingRanges] = {}
    for sched in schedules:
        j = sched.core_index
        if not (0 <= j < len(models)):
            report.record("core-index", False, f"core_index {j} out of range")
            continue
        model = models[j]
        n = len(sched)

        # -- Theorem 3: shortest task first (forward order) ---------------
        if optimal_order:
            cycles = [pl.task.cycles for pl in sched]
            bad = next(
                (k for k in range(1, n) if cycles[k] < cycles[k - 1]), None
            )
            report.record(
                "order-nondecreasing-cycles", bad is None,
                f"core {j}: cycles[{bad}]={cycles[bad]:g} < cycles[{bad - 1}]={cycles[bad - 1]:g}"
                if bad is not None else "",
            )

        # -- rates are table members; Lemma 3 dominating-range rates -------
        if dominating_rates and j not in range_cache:
            range_cache[j] = DominatingRanges.from_cost_model(model)
        for k, pl in enumerate(sched, start=1):
            if pl.rate not in model.table:
                report.record("rate-in-table", False,
                              f"core {j} slot {k}: rate {pl.rate!r} not in table")
                continue
            if dominating_rates:
                kb = n - k + 1  # backward position
                want_rate = range_cache[j].rate_for(kb)
                report.record(
                    "rate-dominating-range", pl.rate == want_rate,
                    f"core {j} slot {k} (kb={kb}): rate {pl.rate:g} != dominating {want_rate:g}",
                )

        # -- cost accounting re-derivation ---------------------------------
        cost = model.core_cost(sched)
        clock = 0.0
        energy_j = 0.0
        turnaround = 0.0
        for pl in sched:
            clock += pl.task.cycles * model.table.time(pl.rate)
            energy_j += pl.task.cycles * model.table.energy(pl.rate)
            turnaround += clock
        report.record("cost-busy-seconds", _close(cost.busy_seconds, clock),
                      f"core {j}: busy {cost.busy_seconds!r} != {clock!r}")
        report.record("cost-makespan", _close(cost.makespan, clock),
                      f"core {j}: makespan {cost.makespan!r} != {clock!r}")
        report.record("cost-energy-joules", _close(cost.energy_joules, energy_j),
                      f"core {j}: joules {cost.energy_joules!r} != {energy_j!r}")
        report.record("cost-turnaround-sum", _close(cost.turnaround_sum, turnaround),
                      f"core {j}: turnaround {cost.turnaround_sum!r} != {turnaround!r}")
        report.record("cost-task-count", cost.task_count == n,
                      f"core {j}: task_count {cost.task_count} != {n}")
        total = model.re * energy_j + model.rt * turnaround
        report.record("cost-total", _close(cost.total_cost, total),
                      f"core {j}: total {cost.total_cost!r} != re·E+rt·W = {total!r}")
        # Equations 8 and 13 are algebraically identical
        positional = model.core_cost_positional(sched)
        report.record("cost-positional-equivalence", _close(cost.total_cost, positional),
                      f"core {j}: Eq.8 {cost.total_cost!r} != Eq.13 {positional!r}")

    return report


# ---------------------------------------------------------------------------
# online runs
# ---------------------------------------------------------------------------

def check_online_result(
    trace: Sequence[Task],
    result: OnlineResult,
    n_cores: int,
    tables: Optional[Sequence[RateTable] | RateTable] = None,
) -> InvariantReport:
    """Audit an :class:`OnlineResult` against its input trace.

    Conservation laws checked:

    * arrivals = completions + in-flight, and in-flight must be zero at
      the end of a run (the runner only returns once every task
      completed);
    * per core, busy time ≤ wall time, and the per-core busy counter
      equals the sum of its records' busy seconds;
    * per record, ``arrival ≤ first_start ≤ finish`` and the busy time
      fits inside the record's span;
    * total energy is the sum of per-record energy, and — when the rate
      tables are supplied — each record's energy and busy time lie
      within the physical bounds of its core's slowest/fastest rate;
    * every output is finite: the run's energy and horizon, and each
      record's finish, energy and busy time (a bound of ``inf`` would
      otherwise admit an ``inf`` reading).
    """
    report = InvariantReport(subject="online-result")

    def table_for(j: int) -> Optional[RateTable]:
        if tables is None:
            return None
        return tables if isinstance(tables, RateTable) else tables[j]

    # -- conservation: arrivals = completions (in-flight = 0 at end) --------
    want = {t.task_id for t in trace}
    counts: dict[int, int] = {}
    for r in result.records:
        counts[r.task.task_id] = counts.get(r.task.task_id, 0) + 1
    dupes = {tid for tid, c in counts.items() if c > 1}
    report.record("completed-once", not dupes,
                  f"task_ids completed more than once: {sorted(dupes)[:5]}")
    in_flight = want - set(counts)
    report.record("conservation-arrivals", not in_flight and set(counts) <= want,
                  f"in-flight at end={sorted(in_flight)[:5]} "
                  f"phantom={sorted(set(counts) - want)[:5]}")

    # -- per-record timing and physical bounds ------------------------------
    per_core_busy = [0.0] * n_cores
    for r in result.records:
        rid = r.task.task_id
        if not (0 <= r.core < n_cores):
            report.record("record-core-index", False,
                          f"task {rid}: core {r.core} out of range")
            continue
        per_core_busy[r.core] += r.busy_seconds
        report.record("record-time-order",
                      r.task.arrival <= r.first_start + ABS_TOL
                      and r.first_start <= r.finish + ABS_TOL,
                      f"task {rid}: arrival={r.task.arrival!r} "
                      f"first_start={r.first_start!r} finish={r.finish!r}")
        span = r.finish - r.first_start
        report.record("record-busy-in-span",
                      -ABS_TOL <= r.busy_seconds <= span + AGG_ABS_TOL,
                      f"task {rid}: busy={r.busy_seconds!r} span={span!r}")
        report.record("record-energy-nonneg", r.energy_joules >= 0.0,
                      f"task {rid}: energy {r.energy_joules!r} < 0")
        table = table_for(r.core)
        if table is not None:
            lo_e = r.task.cycles * table.energy(table.min_rate)
            hi_e = r.task.cycles * table.energy(table.max_rate)
            report.record(
                "record-energy-bounds",
                lo_e * (1 - REL_TOL) - ABS_TOL <= r.energy_joules <= hi_e * (1 + REL_TOL) + ABS_TOL,
                f"task {rid}: energy {r.energy_joules!r} outside [{lo_e!r}, {hi_e!r}]",
            )
            lo_t = r.task.cycles * table.time(table.max_rate)
            hi_t = r.task.cycles * table.time(table.min_rate)
            report.record(
                "record-busy-bounds",
                lo_t * (1 - REL_TOL) - ABS_TOL <= r.busy_seconds <= hi_t * (1 + REL_TOL) + AGG_ABS_TOL,
                f"task {rid}: busy {r.busy_seconds!r} outside [{lo_t!r}, {hi_t!r}]",
            )

    # -- per-core busy-time conservation ------------------------------------
    if result.core_busy_seconds:
        report.record("core-busy-arity", len(result.core_busy_seconds) == n_cores,
                      f"{len(result.core_busy_seconds)} busy counters for {n_cores} cores")
        for j, busy in enumerate(result.core_busy_seconds[:n_cores]):
            report.record("core-busy-le-wall", busy <= result.horizon + AGG_ABS_TOL,
                          f"core {j}: busy {busy!r} > horizon {result.horizon!r}")
            report.record("core-busy-matches-records",
                          _close(busy, per_core_busy[j]),
                          f"core {j}: counter {busy!r} != Σ record busy {per_core_busy[j]!r}")

    # -- whole-run aggregates ------------------------------------------------
    energy_sum = sum(r.energy_joules for r in result.records)
    report.record("energy-sum", _close(result.energy_joules, energy_sum),
                  f"result energy {result.energy_joules!r} != Σ records {energy_sum!r}")
    horizon = max((r.finish for r in result.records), default=0.0)
    report.record("horizon-is-max-finish", _close(result.horizon, horizon, abs_tol=ABS_TOL),
                  f"horizon {result.horizon!r} != max finish {horizon!r}")
    isfinite = math.isfinite
    non_finite = [f"result {name}={value!r}"
                  for name, value in (("energy_joules", result.energy_joules),
                                      ("horizon", result.horizon))
                  if not isfinite(value)]
    for r in result.records:
        for name, value in (("finish", r.finish), ("energy_joules", r.energy_joules),
                            ("busy_seconds", r.busy_seconds)):
            if not isfinite(value):
                non_finite.append(f"task {r.task.task_id}: {name}={value!r}")
    report.record("finite-outputs", not non_finite, "; ".join(non_finite[:5]))

    return report


# ---------------------------------------------------------------------------
# dynamic index
# ---------------------------------------------------------------------------

def check_dynamic_index(index) -> InvariantReport:
    """Audit a :class:`~repro.core.dynamic.DynamicCostIndex`.

    Wraps the index's own ``check_invariants`` (aggregate cross-check
    against a from-scratch rebuild) into an :class:`InvariantReport`.
    """
    report = InvariantReport(subject="dynamic-cost-index")
    try:
        index.check_invariants()
    except AssertionError as exc:
        report.record("dynamic-aggregates", False, str(exc))
    else:
        report.record("dynamic-aggregates", True)
    return report
