"""Monetary cost model (Section III-B, Equations 3-13).

The cost of a task is the sum of an **energy cost** and a **temporal
cost**:

* ``C_{k,e} = Re · L_k · E(p_k)``  — money paid for the joules consumed
  (Equation 3), ``Re`` in cents per joule;
* ``C_{k,t} = Rt · Σ_{i<=k} L_i · T(p_i)`` — money paid for the user's
  turnaround time (Equation 4), ``Rt`` in cents per second.

The paper's pivotal rewrite (Equations 9-13) charges each task for the
delay it inflicts on the tasks *behind* it, giving the positional cost

``C(k, p) = Re·E(p) + (n-k+1)·Rt·T(p)``         (Equation 12)

whose backward form ``CB(k, p) = Re·E(p) + k·Rt·T(p)`` (Equation 20)
depends only on the position counted from the end of the queue. Both
forms, a direct evaluator for full schedules, and the equivalence
between them live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.models.rates import RateTable
from repro.models.records import slot_builder
from repro.models.task import Task

#: The paper's prices, Re in cents per joule and Rt in cents per second:
#: the batch experiments (Fig. 2) and the online experiments (Fig. 3).
RE_BATCH, RT_BATCH = 0.1, 0.4
RE_ONLINE, RT_ONLINE = 0.4, 0.1


@dataclass(frozen=True, slots=True)
class Placement:
    """One scheduled task: which task, at what (fixed) rate."""

    task: Task
    rate: float

    def energy_cost(self, model: "CostModel") -> float:
        return model.re * self.task.cycles * model.table.energy(self.rate)

    def execution_time(self, table: RateTable) -> float:
        return self.task.cycles * table.time(self.rate)


#: ``make_placement(task, rate)`` equals ``Placement(task, rate)``; the
#: batch planners' per-task loops build through it (:mod:`repro.models.records`).
make_placement = slot_builder(Placement)


@dataclass(frozen=True)
class CoreSchedule:
    """An ordered execution sequence for one core (batch mode).

    ``placements[0]`` runs first. Batch-mode semantics: non-preemptive,
    the core switches frequency only between tasks (Section II-B).
    """

    placements: tuple[Placement, ...]
    core_index: int = 0

    def __init__(self, placements: Iterable[Placement], core_index: int = 0) -> None:
        object.__setattr__(self, "placements", tuple(placements))
        object.__setattr__(self, "core_index", core_index)

    def __len__(self) -> int:
        return len(self.placements)

    def __iter__(self) -> Iterator[Placement]:
        return iter(self.placements)

    def tasks(self) -> list[Task]:
        return [pl.task for pl in self.placements]

    def rates(self) -> list[float]:
        return [pl.rate for pl in self.placements]


@dataclass(frozen=True)
class ScheduleCost:
    """Cost breakdown of a full (possibly multi-core) schedule."""

    energy_cost: float
    temporal_cost: float
    energy_joules: float
    busy_seconds: float
    makespan: float
    turnaround_sum: float
    task_count: int

    @property
    def total_cost(self) -> float:
        return self.energy_cost + self.temporal_cost

    @property
    def mean_turnaround(self) -> float:
        return self.turnaround_sum / self.task_count if self.task_count else 0.0

    def __add__(self, other: "ScheduleCost") -> "ScheduleCost":
        return ScheduleCost(
            energy_cost=self.energy_cost + other.energy_cost,
            temporal_cost=self.temporal_cost + other.temporal_cost,
            energy_joules=self.energy_joules + other.energy_joules,
            busy_seconds=self.busy_seconds + other.busy_seconds,
            makespan=max(self.makespan, other.makespan),
            turnaround_sum=self.turnaround_sum + other.turnaround_sum,
            task_count=self.task_count + other.task_count,
        )


ZERO_COST = ScheduleCost(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)


def check_prices(re: float, rt: float) -> None:
    """Reject ``Re``/``Rt`` that are not positive and finite (``ValueError``)."""
    if re <= 0 or rt <= 0:
        raise ValueError("Re and Rt must be positive")
    for label, value in (("Re", re), ("Rt", rt)):
        if not math.isfinite(value):
            raise ValueError(f"{label} must be finite, got {value!r}")


class CostModel:
    """The weighted energy + flow-time objective with rates ``Re`` and ``Rt``.

    Parameters
    ----------
    table:
        The core's :class:`RateTable` (homogeneous systems share one;
        heterogeneous systems use one :class:`CostModel` per core type,
        or :class:`repro.core.batch_multi.WorkloadBasedGreedy` with a
        table per core).
    re:
        Cost of a joule of energy (cents/J). Section V uses 0.1 for the
        batch experiments and 0.4 for the online trace.
    rt:
        Cost per second of user waiting (cents/s). Section V uses 0.4
        for the batch experiments and 0.1 for the online trace.
    """

    def __init__(self, table: RateTable, re: float, rt: float) -> None:
        check_prices(re, rt)
        self.table = table
        self.re = float(re)
        self.rt = float(rt)

    # -- positional costs (Equations 12 and 20) -------------------------------
    def position_cost(self, k: int, n: int, rate: float) -> float:
        """``C(k, p) = Re·E(p) + (n-k+1)·Rt·T(p)`` — forward position ``k`` of ``n``."""
        if not (1 <= k <= n):
            raise ValueError(f"forward position must satisfy 1 <= k <= n, got k={k} n={n}")
        return self.backward_position_cost(n - k + 1, rate)

    def backward_position_cost(self, kb: int, rate: float) -> float:
        """``CB(k, p) = Re·E(p) + k·Rt·T(p)`` — ``kb``-th position from the end.

        ``kb = 1`` is the last task in the queue (it delays only
        itself); larger ``kb`` means more tasks wait behind.
        """
        if not kb >= 1:  # also rejects NaN
            raise ValueError(f"backward position must be >= 1, got {kb}")
        return self.re * self.table.energy(rate) + kb * self.rt * self.table.time(rate)

    def best_rate_backward(self, kb: int) -> tuple[float, float]:
        """Brute-force ``argmin_p CB(kb, p)``; ties go to the **higher** rate.

        The dominating-position-range machinery
        (:mod:`repro.core.dominating`) computes the same answer for all
        ``kb`` at once in ``Θ(|P|)``; this per-position scan is the
        specification it is tested against.
        """
        rates = self.table.rates  # ascending: later (higher) rate wins ties
        best_rate = rates[0]
        best_cost = self.backward_position_cost(kb, best_rate)
        for p in rates[1:]:
            c = self.backward_position_cost(kb, p)
            if c <= best_cost:
                best_cost = c
                best_rate = p
        return best_rate, best_cost

    def best_backward_cost(self, kb: int) -> float:
        """``CB*(kb) = min_p CB(kb, p)`` (Equation 21)."""
        return self.best_rate_backward(kb)[1]

    # -- whole-schedule evaluation (Equation 8) --------------------------------
    def core_cost(self, schedule: CoreSchedule) -> ScheduleCost:
        """Direct evaluation of Equation 8 for one core's sequence.

        Computes each task's turnaround (waiting + own execution) and
        energy, then converts to money. Exact for batch-mode semantics
        (fixed rate per task, no idling between tasks).
        """
        clock = 0.0
        energy_j = 0.0
        turnaround_sum = 0.0
        for pl in schedule:
            exec_time = pl.task.cycles * self.table.time(pl.rate)
            clock += exec_time
            energy_j += pl.task.cycles * self.table.energy(pl.rate)
            turnaround_sum += clock
        return ScheduleCost(
            energy_cost=self.re * energy_j,
            temporal_cost=self.rt * turnaround_sum,
            energy_joules=energy_j,
            busy_seconds=clock,
            makespan=clock,
            turnaround_sum=turnaround_sum,
            task_count=len(schedule),
        )

    def core_cost_positional(self, schedule: CoreSchedule) -> float:
        """Equation 13 evaluation: ``Σ C(k, p_k)·L_k``.

        Must equal :meth:`core_cost`'s ``total_cost`` — the paper's
        Equations 8 and 13 are algebraically identical; the property
        tests assert this on random schedules.
        """
        n = len(schedule)
        total = 0.0
        for k, pl in enumerate(schedule, start=1):
            total += self.position_cost(k, n, pl.rate) * pl.task.cycles
        return total

    def schedule_cost(self, schedules: Sequence[CoreSchedule]) -> ScheduleCost:
        """Sum of per-core costs; makespan is the max across cores."""
        total = ZERO_COST
        for s in schedules:
            total = total + self.core_cost(s)
        return total

    # -- marginal cost for the online mode (Equation 27) -----------------------
    def interactive_marginal_cost(self, cycles: float, waiting_tasks: int) -> float:
        """Equation 27: marginal cost of running an interactive task now.

        ``C_M = Re·L·E(pm) + Rt·L·T(pm) + Rt·L·T(pm)·N``

        where ``pm`` is this core's maximum frequency and ``N`` the
        number of non-interactive tasks waiting in its queue — the
        task's own energy and time, plus the delay it inflicts on every
        queued task. ``E(pm)`` and ``T(pm)`` are the last entries of the
        rate-sorted table.
        """
        if cycles <= 0:
            raise ValueError("cycles must be positive")
        if waiting_tasks < 0:
            raise ValueError("waiting_tasks must be non-negative")
        table = self.table
        e_pm = table.energy_per_cycle[-1]
        t_pm = table.time_per_cycle[-1]
        own = self.re * cycles * e_pm + self.rt * cycles * t_pm
        inflicted = self.rt * cycles * t_pm * waiting_tasks
        return own + inflicted

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostModel(Re={self.re:g}, Rt={self.rt:g}, table={self.table.name or self.table.rates})"
