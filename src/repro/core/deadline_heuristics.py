"""Polynomial-time heuristics for the NP-complete deadline problems.

Theorems 1-2 rule out exact polynomial algorithms (unless P = NP), and
the paper stops at the hardness proof. A practical system still needs
answers, so this module adds the classical heuristics the hardness
motivates — all verifiable witnesses (they never return an infeasible
schedule; they may fail on feasible instances, which the tests quantify
against the exact solvers on small inputs):

* :func:`edf_rate_descent` — single core: start every task at the
  maximum rate in EDF order (optimal for feasibility), then greedily
  step rates down, always taking the move with the best
  energy-saved-per-slack-consumed, while all deadlines stay met.
* :func:`lpt_multi_core` — identical cores, per-task deadlines: Longest
  Processing Time list scheduling onto the earliest-free core at max
  rate, then per-core rate descent. For the common-deadline case this
  carries LPT's classical ``4/3 − 1/(3m)`` makespan guarantee, so it
  certifies feasibility whenever the deadline has that much headroom.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional

from repro.core.deadline import DeadlineInstance, DeadlineSolution
from repro.models.task import Task
from repro.models.tolerances import STRICT_ABS_TOL, TIME_SLACK


def _completion_times(order, rates, table) -> list[float]:
    clock = 0.0
    out = []
    for task, rate in zip(order, rates):
        clock += task.cycles * table.time(rate)
        out.append(clock)
    return out


def _deadlines_met(order, rates, table) -> bool:
    return all(
        c <= t.deadline + TIME_SLACK
        for c, t in zip(_completion_times(order, rates, table), order)
    )


def _rate_descent(order: list[Task], table, energy_budget: float) -> Optional[list[float]]:
    """Greedy step-down of per-task rates, preserving EDF feasibility.

    Returns the rate list, or None if even all-max violates a deadline.
    Each pass takes the single step-down with the largest energy saving
    per second of slack consumed; terminates because rates only move
    down a finite menu.
    """
    rates = [table.max_rate] * len(order)
    if not _deadlines_met(order, rates, table):
        return None

    improved = True
    while improved:
        improved = False
        best_idx = -1
        best_ratio = 0.0
        best_rate = None
        for i, task in enumerate(order):
            cur = rates[i]
            down = table.step_down(cur)
            if down == cur:
                continue
            trial = rates.copy()
            trial[i] = down
            if not _deadlines_met(order, trial, table):
                continue
            saved = task.cycles * (table.energy(cur) - table.energy(down))
            slack_used = task.cycles * (table.time(down) - table.time(cur))
            ratio = saved / slack_used if slack_used > 0 else math.inf
            if ratio > best_ratio:
                best_ratio = ratio
                best_idx = i
                best_rate = down
        if best_idx >= 0:
            rates[best_idx] = best_rate
            improved = True

    energy = sum(t.cycles * table.energy(p) for t, p in zip(order, rates))
    if energy > energy_budget + TIME_SLACK:
        return None
    return rates


def edf_rate_descent(instance: DeadlineInstance) -> Optional[DeadlineSolution]:
    """Single-core heuristic: EDF order + greedy rate descent.

    Complete for *feasibility at max rate* (EDF is exactly optimal
    there); heuristic for the energy dimension — it may exceed a tight
    energy budget that a cleverer rate assignment would satisfy (the
    gap is what Theorem 1 says no polynomial algorithm can close).
    """
    if instance.n_cores != 1:
        raise ValueError("use lpt_multi_core for multi-core instances")
    order = sorted(instance.tasks, key=lambda t: (t.deadline, t.task_id))
    rates = _rate_descent(order, instance.table, instance.energy_budget)
    if rates is None:
        return None
    energy = sum(t.cycles * instance.table.energy(p) for t, p in zip(order, rates))
    makespan = _completion_times(order, rates, instance.table)[-1] if order else 0.0
    return DeadlineSolution(
        order=tuple(order),
        rates=tuple(rates),
        cores=(0,) * len(order),
        total_energy=energy,
        makespan=makespan,
    )


def lpt_multi_core(instance: DeadlineInstance) -> Optional[DeadlineSolution]:
    """Multi-core heuristic: LPT placement at max rate + per-core descent.

    Tasks go heaviest-first onto the earliest-free core; each core then
    runs EDF + rate descent independently under a shared energy budget
    (allocated greedily core by core).
    """
    table = instance.table
    heap = [(0.0, j) for j in range(instance.n_cores)]
    lanes: list[list[Task]] = [[] for _ in range(instance.n_cores)]
    for task in sorted(instance.tasks, key=lambda t: (-t.cycles, t.task_id)):
        load, j = heapq.heappop(heap)
        lanes[j].append(task)
        heapq.heappush(heap, (load + task.cycles * table.time(table.max_rate), j))

    remaining_budget = instance.energy_budget
    order: list[Task] = []
    rates: list[float] = []
    cores: list[int] = []
    makespan = 0.0
    total_energy = 0.0
    for j, lane in enumerate(lanes):
        if not lane:
            continue
        lane_order = sorted(lane, key=lambda t: (t.deadline, t.task_id))
        lane_rates = _rate_descent(lane_order, table, remaining_budget)
        if lane_rates is None:
            return None
        lane_energy = sum(
            t.cycles * table.energy(p) for t, p in zip(lane_order, lane_rates)
        )
        remaining_budget -= lane_energy
        total_energy += lane_energy
        makespan = max(makespan, _completion_times(lane_order, lane_rates, table)[-1])
        order.extend(lane_order)
        rates.extend(lane_rates)
        cores.extend([j] * len(lane_order))

    return DeadlineSolution(
        order=tuple(order),
        rates=tuple(rates),
        cores=tuple(cores),
        total_energy=total_energy,
        makespan=makespan,
    )


def lpt_feasibility_certificate(instance: DeadlineInstance) -> Optional[bool]:
    """Cheap one-sided answers for the common-deadline multi-core case.

    Returns True (certainly feasible), False (certainly infeasible), or
    None (the NP-hard grey zone). Uses, at the maximum rate:

    * infeasible if any single task overruns its deadline, or if total
      work exceeds ``m × D`` for the common deadline ``D``;
    * feasible if LPT's ``4/3 − 1/(3m)`` bound fits inside ``D``
      (without even running LPT), or if LPT itself meets ``D``.
    """
    table = instance.table
    t_max = table.time(table.max_rate)
    deadlines = {t.deadline for t in instance.tasks}
    if len(deadlines) != 1:
        raise ValueError("certificate requires a common deadline")
    d = next(iter(deadlines))
    m = instance.n_cores
    works = [t.cycles * t_max for t in instance.tasks]
    if not works:
        return True
    if max(works) > d + STRICT_ABS_TOL:
        return False
    if sum(works) > m * d + STRICT_ABS_TOL:
        return False
    lower_bound = max(max(works), sum(works) / m)
    if lower_bound * (4.0 / 3.0 - 1.0 / (3.0 * m)) <= d + STRICT_ABS_TOL:
        return True
    sol = lpt_multi_core(
        DeadlineInstance(tasks=instance.tasks, table=table,
                         energy_budget=math.inf, n_cores=m)
    )
    if sol is not None and sol.makespan <= d + TIME_SLACK:
        return True
    return None
