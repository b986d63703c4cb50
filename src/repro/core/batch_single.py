"""Algorithm 2 — optimal single-core batch schedule ("Longest Task Last").

Theorem 3 shows an optimal schedule orders tasks by **non-decreasing
cycle count** (the shortest task runs first, at the highest effective
rate, because it delays everyone behind it; the longest task runs last,
slowly, because it delays nobody). Combined with Lemma 1 — the optimal
rate of a queue slot depends only on the slot's backward position — the
whole problem reduces to: sort, then read each position's rate off the
dominating ranges. ``O(|J| log |J|)`` total.

:func:`brute_force_single_core` exhausts permutations × rate
assignments and is the ground truth the optimality tests compare
against (small ``n`` only).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Optional

from repro.core.dominating import DominatingRanges
from repro.models.cost import CoreSchedule, CostModel, Placement
from repro.models.task import Task, TaskSet
from repro.models.tolerances import IMPROVE_TOL


def schedule_single_core(
    tasks: Iterable[Task],
    model: CostModel,
    ranges: Optional[DominatingRanges] = None,
    core_index: int = 0,
) -> CoreSchedule:
    """Compute the minimum-cost single-core schedule (Algorithm 2).

    Parameters
    ----------
    tasks:
        Batch tasks (deadline-free; arrival times are ignored per the
        batch-mode assumptions).
    model:
        The ``(P, E, T, Re, Rt)`` cost model of this core.
    ranges:
        Precomputed dominating ranges for ``model``; computed on the
        fly when omitted. Pass one in when scheduling many batches
        against the same platform — Lemma 1 makes it reusable.
    core_index:
        Core label recorded on the returned :class:`CoreSchedule`.

    Returns
    -------
    CoreSchedule
        Placements in execution order: non-decreasing cycle count, each
        at the rate its backward position dominates.
    """
    if ranges is None:
        ranges = DominatingRanges.from_cost_model(model)
    elif ranges.model is not model:
        _check_compatible(ranges, model)

    ordered = sorted(tasks, key=lambda t: (t.cycles, t.task_id))  # forward order
    n = len(ordered)
    placements = [
        Placement(task=t, rate=ranges.rate_for(n - k))  # backward position n-k for 0-based k
        for k, t in enumerate(ordered)
    ]
    return CoreSchedule(placements, core_index=core_index)


def schedule_cost_lower_bound(tasks: Iterable[Task], model: CostModel,
                              ranges: Optional[DominatingRanges] = None) -> float:
    """Equation 17: ``Σ CB*(k)·L^B_k`` — the optimal cost, computed directly.

    Equals the evaluated cost of :func:`schedule_single_core`'s output;
    exposed separately because the online mode's incremental index
    (:mod:`repro.core.dynamic`) maintains exactly this quantity.
    """
    if ranges is None:
        ranges = DominatingRanges.from_cost_model(model)
    descending = sorted((t.cycles for t in tasks), reverse=True)
    return sum(ranges.cost(kb) * L for kb, L in enumerate(descending, start=1))


def brute_force_single_core(
    tasks: TaskSet | list[Task], model: CostModel, max_tasks: int = 7
) -> tuple[CoreSchedule, float]:
    """Exhaustive search over orders × rates. Exponential; tests only.

    Returns the best schedule found and its total cost. Limited to
    ``max_tasks`` tasks as a guard against accidental blow-ups.
    """
    task_list = list(tasks)
    if len(task_list) > max_tasks:
        raise ValueError(f"brute force limited to {max_tasks} tasks, got {len(task_list)}")
    best_cost = math.inf
    best: Optional[CoreSchedule] = None
    rates = model.table.rates
    for perm in itertools.permutations(task_list):
        for assignment in itertools.product(rates, repeat=len(perm)):
            sched = CoreSchedule(
                Placement(task=t, rate=p) for t, p in zip(perm, assignment)
            )
            cost = model.core_cost(sched).total_cost
            if cost < best_cost - IMPROVE_TOL:
                best_cost = cost
                best = sched
    if best is None:
        raise ValueError("no schedule has a finite cost: the cost model overflows on these tasks")
    return best, best_cost


def _check_compatible(ranges: DominatingRanges, model: CostModel) -> None:
    rm = ranges.model
    if (
        rm.re != model.re
        or rm.rt != model.rt
        or rm.table.rates != model.table.rates
        or rm.table.energy_per_cycle != model.table.energy_per_cycle
        or rm.table.time_per_cycle != model.table.time_per_cycle
    ):
        raise ValueError("dominating ranges were built for a different cost model")
