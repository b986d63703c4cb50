"""Readable reference implementations, kept only as test oracles.

Production makes each decision one way, on its fast path; the
specification it must match lives here, written as the paper states
it. :func:`wbg_heap_plan` is Algorithm 3 as a min-heap loop; the
production :class:`~repro.core.batch_multi.WorkloadBasedGreedy` merge
must agree with it exactly (cores, slots, bitwise-equal rates).
:func:`choose_core_interactive` is Equation 27 as an argmin over
per-core :meth:`~repro.models.cost.CostModel.interactive_marginal_cost`
calls; LMC's one-pass choice in
:meth:`repro.schedulers.lmc.LMCOnlineScheduler.select_core` must pick
the same core from bitwise-equal costs. :func:`marginal_insert_costs`
and :func:`choose_core_noninteractive` are the non-interactive choice as
a list of per-core Equation 32 increases and its argmin; the one-loop
:meth:`repro.core.online_lmc.LeastMarginalCostPolicy.choose_core_noninteractive`
must pick the same core.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional, Sequence

from repro.core.dominating import DominatingRanges
from repro.core.online_lmc import LeastMarginalCostPolicy
from repro.models.cost import CoreSchedule, CostModel, Placement
from repro.models.task import Task


def wbg_heap_picks(
    ranges: Sequence[DominatingRanges], n: int
) -> list[tuple[int, int, float, float]]:
    """The first ``n`` pops of Algorithm 3's heap.

    The heap holds each core's next backward slot cost ``C*_j(k_j)``,
    ties broken on the core index. Entry ``i`` is the
    ``(core, slot, rate, C*_core(slot))`` the ``i``-th heaviest task
    receives.
    """
    heap = [(r.cost(1), j) for j, r in enumerate(ranges)]
    heapq.heapify(heap)
    next_slot = [1] * len(ranges)
    picks = []
    for _ in range(n):
        cost, j = heapq.heappop(heap)
        kb = next_slot[j]
        picks.append((j, kb, ranges[j].rate_for(kb), cost))
        next_slot[j] = kb + 1
        heapq.heappush(heap, (ranges[j].cost(kb + 1), j))
    return picks


def wbg_heap_plan(models: Sequence[CostModel], tasks: Iterable[Task]) -> list[CoreSchedule]:
    """Algorithm 3 as written: one :class:`CoreSchedule` per core, shortest task first."""
    ranges = [DominatingRanges.from_cost_model(m) for m in models]
    by_weight = sorted(tasks, key=lambda t: (-t.cycles, t.task_id))
    backward: list[list[Placement]] = [[] for _ in ranges]
    for task, (j, _, rate, _) in zip(by_weight, wbg_heap_picks(ranges, len(by_weight))):
        backward[j].append(Placement(task=task, rate=rate))
    return [CoreSchedule(reversed(b), core_index=j) for j, b in enumerate(backward)]


def choose_core_interactive(models: Sequence[CostModel], cycles: float,
                            delayed_counts: Sequence[int]) -> int:
    """Equation 27 over all cores; returns the argmin core index.

    ``delayed_counts[j]`` is ``N_j`` — how many tasks on core ``j`` an
    interactive task of ``cycles`` would push back (the waiting
    non-interactive tasks plus any task it would preempt). Ties break
    to the lowest core index.
    """
    if len(delayed_counts) != len(models):
        raise ValueError("delayed_counts must have one entry per core")
    costs = [m.interactive_marginal_cost(cycles, n)
             for m, n in zip(models, delayed_counts)]
    return costs.index(min(costs))


def marginal_insert_costs(policy: LeastMarginalCostPolicy, cycles: float,
                          head_delays: Optional[Sequence[float]] = None) -> list[float]:
    """Per-core marginal queue costs for one non-interactive task.

    Entry ``j`` is core ``j``'s Equation 32 increase from
    :meth:`~repro.core.dynamic.DynamicCostIndex.marginal_insert_cost`
    plus ``Rt × head_delays[j]`` when delays are given.
    """
    if head_delays is not None and len(head_delays) != policy.n_cores:
        raise ValueError("head_delays must have one entry per core")
    costs = [q.marginal_insert_cost(cycles) for q in policy.queues]
    if head_delays is not None:
        rt = policy.models[0].rt
        costs = [c + rt * d for c, d in zip(costs, head_delays)]
    return costs


def choose_core_noninteractive(policy: LeastMarginalCostPolicy, cycles: float,
                               head_delays: Optional[Sequence[float]] = None) -> int:
    """The argmin of :func:`marginal_insert_costs`; ties break to the lowest core."""
    costs = marginal_insert_costs(policy, cycles, head_delays)
    return costs.index(min(costs))
