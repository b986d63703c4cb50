"""Weighted flow time — the Albers et al. generalisation (related work).

The paper's temporal cost charges every task the same ``Rt`` per second
of waiting. Albers et al. [10] (cited in Section VI) weight tasks:
task ``k`` pays ``w_k·Rt`` per second, so

``C = Σ_k ( Re·L_k·E(p_k) + Rt·w_k·(turnaround of k) )``

The paper's rewrite generalises: charging each task for the delay it
inflicts, the positional multiplier becomes the **total weight at or
behind** the slot —

``C = Σ_k ( Re·E(p_k) + Rt·W_k·T(p_k) )·L_k,  W_k = Σ_{i>=k} w_i``

— which is no longer workload-independent (Lemma 1 breaks: the
multiplier depends on *which* tasks sit behind, not how many). Rate
choice stays easy for a **fixed order** (per-slot argmin over the menu
with multiplier ``W_k``); the *order* is the hard part. We provide:

* :func:`rates_for_order` — optimal per-task rates for a fixed order
  (exact, by per-slot convex argmin; the weighted Lemma 1);
* :func:`wspt_schedule` — the natural heuristic order: non-decreasing
  ``L_k / w_k`` (WSPT, exactly optimal when rates are fixed, and equal
  to Theorem 3's order for unit weights);
* :func:`exact_weighted_schedule` — brute force over orders (small n),
  the ground truth the tests compare against.

The tests document where WSPT stops being exact: with DVFS the rate
menu couples order and speed, and small counterexamples exist — which
is precisely why the unit-weight structure the paper exploits is
special.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.models.cost import CostModel
from repro.models.task import Task
from repro.models.tolerances import IMPROVE_TOL


@dataclass(frozen=True)
class WeightedTask:
    """A task plus its waiting weight (``w = 1`` reproduces the paper)."""

    task: Task
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.weight > 0:  # also rejects NaN
            raise ValueError(f"weight must be positive, got {self.weight!r}")


@dataclass(frozen=True)
class WeightedSchedule:
    order: tuple[WeightedTask, ...]
    rates: tuple[float, ...]
    total_cost: float


def _slot_cost(model: CostModel, tail_weight: float, rate: float) -> float:
    """Per-cycle positional cost with weighted multiplier ``W``."""
    return model.re * model.table.energy(rate) + tail_weight * model.rt * model.table.time(rate)


def _best_slot_rate(model: CostModel, tail_weight: float) -> tuple[float, float]:
    """argmin over the menu (ties → higher rate, as in the unweighted case)."""
    rates = model.table.rates
    best_rate = rates[0]
    best = _slot_cost(model, tail_weight, best_rate)
    for p in rates[1:]:
        c = _slot_cost(model, tail_weight, p)
        if c <= best:
            best = c
            best_rate = p
    return best_rate, best


def rates_for_order(
    items: Sequence[WeightedTask], model: CostModel
) -> tuple[tuple[float, ...], float]:
    """Optimal rates for a *fixed* execution order, and the resulting cost.

    The weighted Lemma 1: with the order fixed, slot ``k``'s multiplier
    ``W_k`` (weight of the task itself plus everything behind it) is
    known, and the per-slot minimisation decouples.
    """
    n = len(items)
    tail = 0.0
    tails = [0.0] * n
    for i in range(n - 1, -1, -1):
        tail += items[i].weight
        tails[i] = tail
    rates = []
    cost = 0.0
    for item, w_tail in zip(items, tails):
        rate, per_cycle = _best_slot_rate(model, w_tail)
        rates.append(rate)
        cost += per_cycle * item.task.cycles
    return tuple(rates), cost


def wspt_schedule(items: Sequence[WeightedTask], model: CostModel) -> WeightedSchedule:
    """Heuristic: WSPT order (non-decreasing ``L/w``) + per-slot rates.

    Exact for unit weights (it *is* Theorem 3 then); a good but not
    always optimal heuristic otherwise — see the tests for a
    counterexample family and the measured gap.
    """
    ordered = sorted(
        items, key=lambda it: (it.task.cycles / it.weight, it.task.task_id)
    )
    rates, cost = rates_for_order(ordered, model)
    return WeightedSchedule(order=tuple(ordered), rates=rates, total_cost=cost)


def exact_weighted_schedule(
    items: Sequence[WeightedTask], model: CostModel, max_tasks: int = 8
) -> WeightedSchedule:
    """Exhaustive search over orders (rates per order are exactly solvable)."""
    if len(items) > max_tasks:
        raise ValueError(f"exact search limited to {max_tasks} tasks")
    best: Optional[WeightedSchedule] = None
    for perm in itertools.permutations(items):
        rates, cost = rates_for_order(perm, model)
        if best is None or cost < best.total_cost - IMPROVE_TOL:
            best = WeightedSchedule(order=tuple(perm), rates=rates, total_cost=cost)
    if best is None:
        return WeightedSchedule(order=(), rates=(), total_cost=0.0)
    return best


def evaluate_weighted(
    order: Sequence[WeightedTask], rates: Sequence[float], model: CostModel
) -> float:
    """Direct (Equation-8-style) evaluation of a weighted schedule.

    Must agree with the positional form used by :func:`rates_for_order`;
    the property tests assert the weighted rewrite the same way the
    unweighted one is asserted.
    """
    clock = 0.0
    cost = 0.0
    for item, rate in zip(order, rates):
        clock += item.task.cycles * model.table.time(rate)
        cost += model.re * item.task.cycles * model.table.energy(rate)
        cost += model.rt * item.weight * clock
    return cost
