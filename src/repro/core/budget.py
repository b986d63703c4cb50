"""Flow-time minimisation under a fixed energy budget (single core).

Pruhs et al. (related work [19]) study the dual formulation of the
paper's objective: a fixed energy volume ``E`` is given and the goal is
to minimise total flow time. The paper's weighted-sum cost is exactly
the Lagrangian of that problem —

``L(schedule, λ) = flow(schedule) + λ·energy(schedule)``

— and for every multiplier ``λ`` Algorithm 2 minimises it *optimally*
(set ``Re = λ``, ``Rt = 1``). Sweeping ``λ`` therefore traces the lower
convex hull of the (energy, flow-time) Pareto frontier, and a binary
search over ``λ`` finds the minimum-flow schedule whose energy fits the
budget, up to the frontier's convex-hull gap (the budget may fall
between two discrete hull points; we return the cheapest feasible one).

This module is an *extension* beyond the paper's experiments: it reuses
the paper's own machinery to answer the related-work question.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.core.batch_single import schedule_single_core
from repro.models.cost import CoreSchedule, CostModel
from repro.models.rates import RateTable
from repro.models.task import Task
from repro.models.tolerances import ABS_TOL, BISECT_REL_TOL, IMPROVE_TOL

#: λ small enough that every task picks the maximum rate (the infeasible
#: bracket seed for the bisection, not a comparison tolerance).
_LAMBDA_FLOOR = 1e-18  # repro-lint: disable=RP001 -- bisection bracket seed, not a comparison tolerance


@dataclass(frozen=True)
class BudgetSchedule:
    """A feasible schedule for the energy-budget problem."""

    schedule: CoreSchedule
    flow_time: float
    energy: float
    multiplier: float  # the λ (= Re with Rt = 1) that produced it


def _evaluate(schedule: CoreSchedule, table: RateTable) -> tuple[float, float]:
    """(flow_time, energy) of a fixed-rate-per-task sequence."""
    clock = 0.0
    flow = 0.0
    energy = 0.0
    for pl in schedule:
        clock += pl.task.cycles * table.time(pl.rate)
        flow += clock
        energy += pl.task.cycles * table.energy(pl.rate)
    return flow, energy


def _solve_at(tasks: Sequence[Task], table: RateTable, lam: float) -> BudgetSchedule:
    model = CostModel(table, re=lam, rt=1.0)
    sched = schedule_single_core(tasks, model)
    flow, energy = _evaluate(sched, table)
    return BudgetSchedule(schedule=sched, flow_time=flow, energy=energy, multiplier=lam)


def min_energy(tasks: Iterable[Task], table: RateTable) -> float:
    """Energy of running everything at the lowest rate — the feasibility floor."""
    return sum(t.cycles for t in tasks) * table.energy(table.min_rate)


def schedule_with_energy_budget(
    tasks: Sequence[Task],
    table: RateTable,
    budget: float,
    tol: float = ABS_TOL,
    max_iters: int = 200,
) -> Optional[BudgetSchedule]:
    """Minimum-flow-time schedule with ``energy <= budget``, or ``None``.

    Binary search over the Lagrange multiplier ``λ``. Because every
    candidate is an *optimal* weighted-sum schedule (Theorem 3 +
    Lemma 1), every returned point lies on the Pareto frontier's convex
    hull: no schedule with less flow time fits the budget unless it
    sits strictly inside a hull gap.
    """
    task_list = list(tasks)
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if not task_list:
        return _solve_at(task_list, table, 1.0)
    if min_energy(task_list, table) > budget + tol:
        return None  # even the all-minimum-rate schedule cannot fit

    # λ = 0⁺: all-max-rate (min flow). If that fits, it is globally optimal.
    fastest = _solve_at(task_list, table, _LAMBDA_FLOOR)
    if fastest.energy <= budget + tol:
        return fastest

    # find an upper multiplier that is feasible
    lo = _LAMBDA_FLOOR  # infeasible side (too fast, too much energy)
    hi = 1.0
    feasible_hi = None
    for _ in range(100):
        cand = _solve_at(task_list, table, hi)
        if cand.energy <= budget + tol:
            feasible_hi = cand
            break
        hi *= 8.0
    if feasible_hi is None:
        raise RuntimeError(f"no multiplier up to {hi:g} fits, yet the min-rate schedule does")

    best = feasible_hi
    for _ in range(max_iters):
        mid = math.sqrt(lo * hi)
        cand = _solve_at(task_list, table, mid)
        if cand.energy <= budget + tol:
            hi = mid
            if cand.flow_time < best.flow_time - tol or (
                abs(cand.flow_time - best.flow_time) <= tol and cand.energy < best.energy
            ):
                best = cand
        else:
            lo = mid
        if hi / lo < 1.0 + BISECT_REL_TOL:
            break
    return best


def pareto_frontier(
    tasks: Sequence[Task],
    table: RateTable,
    points: int = 25,
) -> list[tuple[float, float]]:
    """(energy, flow_time) hull points swept over multipliers, deduplicated.

    Sorted by decreasing energy (increasing flow time). Useful for
    plotting the energy/performance trade-off of a workload.
    """
    if points < 2:
        raise ValueError("need at least two sweep points")
    task_list = list(tasks)
    lams = [10.0 ** (-6 + 12 * i / (points - 1)) for i in range(points)]
    seen: dict[tuple[float, float], None] = {}
    for lam in lams:
        r = _solve_at(task_list, table, lam)
        seen[(round(r.energy, 9), round(r.flow_time, 9))] = None
    # drop dominated points: walking up in energy, keep a point only if it
    # strictly improves (reduces) the best flow time seen so far
    ascending = sorted(seen, key=lambda p: (p[0], p[1]))
    cleaned: list[tuple[float, float]] = []
    best_flow = math.inf
    for e, f in ascending:
        if f < best_flow - IMPROVE_TOL:
            cleaned.append((e, f))
            best_flow = f
    cleaned.reverse()  # report in decreasing energy / increasing flow order
    return cleaned
