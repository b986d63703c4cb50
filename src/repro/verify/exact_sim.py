"""Exact replay of simulated runs, in rational arithmetic.

The simulator integrates each task's progress in floats: one
subtraction per interval it ran, one product per completion time. This
module recomputes the same runs in :class:`fractions.Fraction` over the
rate tables' float entries, taken as exact, and measures how far each
float record lies from the exact value.

* :func:`replay_online` replays a traced :func:`~repro.simulator.online_runner.run_online`
  run. Its ``sim.dispatch``, ``sim.rate``, ``sim.preempt`` and
  ``sim.complete`` events are the breakpoints; between two of them a
  core runs one task at one rate (online cores have no contention), so
  each interval's cycles, seconds and joules are exact.
* :func:`ideal_batch` is Equation 8 for a batch plan without
  contention: a task finishes at the cumulative ``cycles·T(p)`` of its
  core's plan and costs ``cycles·E(p)``.

Each float record may sit :func:`record_bound` seconds off its exact
value: :data:`ULPS_PER_STEP` ulps of its finish clock for every step
that rounded it, plus the residue the simulator drops at a completion
(:func:`~repro.simulator.platform.finish_tolerance`). The clock ulp is
the right unit: every rounding happens at the absolute clock, so a
sub-millisecond task late in a run is tens of thousands of its own ulps
off while being a few clock ulps off. :func:`online_errors` and
:func:`batch_errors` report each record's error in those clock ulps and
its bound; the ``exact_sim`` fuzz check (:mod:`repro.verify.differential`)
requires every error within its bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from repro.models.cost import CoreSchedule
from repro.models.rates import RateTable
from repro.models.task import Task
from repro.simulator.platform import finish_tolerance

#: Clock ulps one integration step may add to a record's error: the
#: interval's subtraction, the cycles it converts to, the remainder's
#: subtraction, the completion time's product and sum, and the
#: accumulation into the task's books each round once, by at most one
#: ulp of the clock.
ULPS_PER_STEP = 8

#: Double-precision machine epsilon, exactly.
_EPS = Fraction(math.ulp(1.0))


@dataclass(frozen=True)
class ExactRecord:
    """One task's exact outcome.

    ``cycles`` is what the task executed between its breakpoints (online)
    or its plan's cycles (batch). ``fastest``/``slowest`` are the least
    and greatest seconds per cycle it ran at, and ``watts`` the greatest
    busy power; :func:`record_bound` scales the dropped residue by them.
    """

    task_id: int
    cycles: Fraction
    start: Fraction
    finish: Fraction
    busy_seconds: Fraction
    energy_joules: Fraction
    fastest: float
    slowest: float
    watts: Fraction


@dataclass(frozen=True)
class RecordError:
    """One float record against its exact replay, in ulps of its finish clock.

    ``bound_ulps`` is :func:`record_bound` in the same unit; energy is
    measured as seconds at the task's greatest busy power, and cycles as
    seconds at its fastest rate.
    """

    task_id: int
    finish_ulps: float
    busy_ulps: float
    energy_ulps: float
    cycles_ulps: float
    bound_ulps: float

    @property
    def worst_ulps(self) -> float:
        return max(self.finish_ulps, self.busy_ulps, self.energy_ulps, self.cycles_ulps)


class _Books:
    """One task's exact books while it is being replayed."""

    __slots__ = ("task", "start", "cycles", "busy", "energy", "fastest", "slowest", "watts")

    def __init__(self, task: Task, start: Fraction) -> None:
        self.task, self.start = task, start
        self.cycles = self.busy = self.energy = self.watts = Fraction(0)
        self.fastest, self.slowest = math.inf, 0.0

    def run(self, table: RateTable, rate: float, seconds: Fraction) -> None:
        """Book ``seconds`` at ``rate``: cycles ``s/T``, joules ``s·E/T``."""
        i = table.index_of(rate)
        t, e = table.time_per_cycle[i], table.energy_per_cycle[i]
        watts = Fraction(e) / Fraction(t)
        self.cycles += seconds / Fraction(t)
        self.busy += seconds
        self.energy += seconds * watts
        self.fastest, self.slowest = min(self.fastest, t), max(self.slowest, t)
        self.watts = max(self.watts, watts)

    def record(self, finish: Fraction) -> ExactRecord:
        return ExactRecord(self.task.task_id, self.cycles, self.start, finish,
                           self.busy, self.energy, self.fastest, self.slowest, self.watts)


def _table(tables: Sequence[RateTable] | RateTable, j: int) -> RateTable:
    return tables if isinstance(tables, RateTable) else tables[j]


def replay_online(events: Iterable, trace: Sequence[Task],
                  tables: Sequence[RateTable] | RateTable) -> dict[int, ExactRecord]:
    """Each completed task's exact outcome, keyed by task id.

    ``events`` is a traced online run's event stream (a
    :class:`~repro.obs.tracer.RecordingTracer`); events other than the
    four ``sim.*`` breakpoints are ignored. ``tables`` is one table for
    every core or ``tables[j]`` core ``j``'s.
    """
    tasks = {t.task_id: t for t in trace}
    rate: dict[int, float] = {}
    running: dict[int, tuple[_Books, Fraction]] = {}  # core → (books, since)
    books: dict[int, _Books] = {}
    out: dict[int, ExactRecord] = {}

    def close(j: int, now: Fraction) -> _Books:
        task_books, since = running.pop(j)
        task_books.run(_table(tables, j), rate[j], now - since)
        return task_books

    for event in events:
        kind, data = event.kind, event.data
        if not kind.startswith("sim."):
            continue
        j, now = data["core"], Fraction(data["time"])
        if kind == "sim.rate":
            if j in running:
                running[j] = (close(j, now), now)
            rate[j] = data["rate"]
        elif kind == "sim.dispatch":
            if j in running:
                raise ValueError(f"core {j}: dispatch at t={data['time']!r} while busy")
            task_id = data["task_id"]
            if task_id not in books:
                books[task_id] = _Books(tasks[task_id], now)
            rate[j] = data["rate"]
            running[j] = (books[task_id], now)
        elif kind == "sim.preempt":
            close(j, now)
        elif kind == "sim.complete":
            out[data["task_id"]] = close(j, now).record(now)
    return out


def ideal_batch(schedules: Sequence[CoreSchedule],
                tables: Sequence[RateTable] | RateTable) -> dict[int, ExactRecord]:
    """Equation 8 per task of an uncontended batch plan, keyed by task id."""
    out: dict[int, ExactRecord] = {}
    for schedule in schedules:
        table = _table(tables, schedule.core_index)
        clock = Fraction(0)
        for placement in schedule.placements:
            books = _Books(placement.task, clock)
            i = table.index_of(placement.rate)
            books.run(table, placement.rate, Fraction(placement.task.cycles)
                      * Fraction(table.time_per_cycle[i]))
            clock += books.busy
            out[placement.task.task_id] = books.record(clock)
    return out


def residue_seconds(task: Task, exact: ExactRecord, finish: float) -> float:
    """The most a completion at ``finish`` may drop: :func:`finish_tolerance`
    cycles of ``task`` at the slowest rate it ran at."""
    return finish_tolerance(task.cycles, finish, exact.slowest) * exact.slowest


def record_bound(finish: float, steps: int, residue: float) -> float:
    """Seconds a record finishing at clock ``finish`` may be off exact:
    ``steps`` roundings of at most :data:`ULPS_PER_STEP` clock ulps each,
    plus ``residue`` seconds of dropped work."""
    return ULPS_PER_STEP * steps * math.ulp(finish) + residue


def _errors(exact: ExactRecord, task: Task, start: float, finish: float, busy: float,
            energy: float, steps: int, residue: float) -> RecordError:
    ulp = Fraction(math.ulp(finish))
    # a task that ran the wrong span executed the wrong work; at its
    # fastest rate a clock ulp is the most cycles
    cycles_err = abs(exact.cycles - Fraction(task.cycles)) * Fraction(exact.fastest)
    # float products round relative to the total as well
    energy_slack = 4 * steps * _EPS * exact.energy_joules
    energy_err = max(Fraction(0), abs(Fraction(energy) - exact.energy_joules) - energy_slack)
    return RecordError(
        task.task_id,
        finish_ulps=float(max(abs(Fraction(finish) - exact.finish),
                              abs(Fraction(start) - exact.start)) / ulp),
        busy_ulps=float(abs(Fraction(busy) - exact.busy_seconds) / ulp),
        energy_ulps=float(energy_err / exact.watts / ulp) if exact.watts else 0.0,
        cycles_ulps=float(cycles_err / ulp),
        bound_ulps=float(Fraction(record_bound(finish, steps, residue)) / ulp),
    )


def online_errors(events: Iterable, trace: Sequence[Task], result,
                  tables: Sequence[RateTable] | RateTable) -> list[RecordError]:
    """Every record of an online result against its exact replay.

    Any event of the run may have split a task's integration, so each
    record gets ``result.events`` steps. The exact finish is the traced
    completion instant itself; a completion at the wrong time shows as
    executed cycles off the task's own.
    """
    exact = replay_online(events, trace, tables)
    out = []
    for r in result.records:
        x = exact[r.task.task_id]
        out.append(_errors(x, r.task, r.first_start, r.finish, r.busy_seconds,
                           r.energy_joules, result.events,
                           residue_seconds(r.task, x, r.finish)))
    return out


def batch_errors(schedules: Sequence[CoreSchedule], tables: Sequence[RateTable] | RateTable,
                 result) -> list[RecordError]:
    """Every record of an uncontended batch result against Equation 8.

    A record's finish accumulates the roundings of every completion up
    to it on any core, so its steps are its rank in completion order;
    and every earlier task on its core may have completed early by its
    own residue, so the residues add up along the core's plan.
    """
    exact = ideal_batch(schedules, tables)
    by_id = {r.task.task_id: r for r in result.records}
    rank = {r.task.task_id: k for k, r in
            enumerate(sorted(result.records, key=lambda r: r.finish), start=1)}
    out = []
    for schedule in schedules:
        carried = 0.0
        for placement in schedule.placements:
            r = by_id[placement.task.task_id]
            x = exact[r.task.task_id]
            carried += residue_seconds(r.task, x, r.finish)
            out.append(_errors(x, r.task, r.start, r.finish, r.finish - r.start,
                               r.energy_joules, rank[r.task.task_id], carried))
    return out


def violations(errors: Iterable[RecordError]) -> list[str]:
    """One message per record whose error exceeds its bound."""
    return [
        f"task {e.task_id}: {e.worst_ulps:.3g} clock ulps off exact "
        f"(finish {e.finish_ulps:.3g}, busy {e.busy_ulps:.3g}, energy {e.energy_ulps:.3g}, "
        f"cycles {e.cycles_ulps:.3g}), bound {e.bound_ulps:.3g}"
        for e in errors if not e.worst_ulps <= e.bound_ulps
    ]


def total_energy_error(records, exact: dict[int, ExactRecord], energy_joules: float) -> float:
    """Relative error of a run's float energy total against the exact sum."""
    total = sum((exact[r.task.task_id].energy_joules for r in records), Fraction(0))
    return float(abs(Fraction(energy_joules) - total) / total) if total else 0.0


__all__ = [
    "ULPS_PER_STEP",
    "ExactRecord",
    "RecordError",
    "batch_errors",
    "ideal_batch",
    "online_errors",
    "record_bound",
    "residue_seconds",
    "replay_online",
    "total_energy_error",
    "violations",
]
