"""Multi-core batch scheduling: Theorem 4 and Algorithm 3 (WBG).

**Homogeneous platforms (Theorem 4).** All cores share ``E``/``T``, so
the positional costs are identical everywhere and a round-robin that
hands the ``i``-th heaviest task backward position ``⌈i/R⌉`` on core
``i mod R`` is optimal.

**Heterogeneous platforms (Theorem 5, Algorithm 3 — Workload Based
Greedy).** Cores may differ in ``E_j``/``T_j``. Sort tasks by
descending cycle count; keep a min-heap of each core's *next* backward
positional cost ``C*_j(k_j)`` (initially ``C*_j(1)`` for all ``j``);
repeatedly pop the globally cheapest slot, put the next-heaviest task
there at that slot's dominating rate, and push the core's following
slot ``C*_j(k_j + 1)``. Because ``C*_j(k)`` is independent of the
workload (Lemma 1) and increases in the backward position ``k``
(Lemma 2 mirrored), this greedy pairing of heavier tasks with globally
smaller positional costs minimises ``Σ C*·L`` — an exchange argument
identical to Theorem 3's.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.core.dominating import DominatingRanges
from repro.models.cost import CoreSchedule, CostModel, Placement, ScheduleCost
from repro.models.task import Task
from repro.structures.indexed_heap import IndexedMinHeap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.tracer import Tracer

#: Batches below this size stay on the scalar heap loop under
#: ``kernel="auto"`` — NumPy setup overhead only pays off past it.
VECTOR_MIN_TASKS = 64


def _use_vector(kernel: str, n_tasks: int) -> bool:
    if kernel == "scalar":
        return False
    if kernel == "vector":
        return True
    if kernel == "auto":
        return n_tasks >= VECTOR_MIN_TASKS
    raise ValueError(f"unknown kernel {kernel!r} (expected auto/scalar/vector)")


class WorkloadBasedGreedy:
    """Algorithm 3 for a fixed (possibly heterogeneous) platform.

    Parameters
    ----------
    models:
        One :class:`CostModel` per core. All cores must share ``Re``
        and ``Rt`` (they are properties of the pricing, not of a core).
        A homogeneous platform simply repeats the same model.

    The per-core dominating ranges come from the process-wide
    Algorithm 1 memo (Lemma 1: they do not depend on the workload), so
    repeated scheduler constructions over the same platform/pricing —
    sweeps, the online rerun baseline, the bench harness — share both
    the ranges and their vectorized positional-cost prefixes.

    ``tracer`` (see :mod:`repro.obs.tracer`) records one
    ``ranges.build`` event per core at construction and one
    ``wbg.slot_pick`` event per heap pop during :meth:`schedule`; with
    the default ``None`` the only cost is a ``is not None`` test per
    decision, and the produced plans are bit-identical either way (the
    obs differential tests pin this).
    """

    def __init__(self, models: Sequence[CostModel],
                 tracer: "Optional[Tracer]" = None) -> None:
        if not models:
            raise ValueError("at least one core is required")
        re, rt = models[0].re, models[0].rt
        for m in models[1:]:
            if m.re != re or m.rt != rt:
                raise ValueError("all cores must share the same Re and Rt")
        self.models = list(models)
        self.ranges = [DominatingRanges.cached(m) for m in models]
        self._tracer = tracer
        if tracer is not None:
            from repro.obs.events import ranges_event_data

            for j, r in enumerate(self.ranges):
                tracer.emit("ranges.build", ranges_event_data(r, core=j))

    @property
    def n_cores(self) -> int:
        return len(self.models)

    def positional_cost(self, core: int, kb: int) -> float:
        """``C*_j(k)`` — core ``core``'s optimal cost for backward slot ``kb``."""
        return self.ranges[core].cost(kb)

    def schedule(self, tasks: Iterable[Task], kernel: str = "auto") -> list[CoreSchedule]:
        """Assign every task a core, a queue slot, and a rate.

        Returns one :class:`CoreSchedule` per core, in execution order
        (shortest assigned task first).

        ``kernel`` selects the implementation: ``"scalar"`` is the
        per-task heap loop of Algorithm 3 (``O(n log n + n log R)``,
        the readable specification); ``"vector"`` replaces the loop
        with one NumPy merge over the memoized positional-cost prefixes
        (:func:`repro.models.vectorized.wbg_slot_sequence`), which is
        several times faster past a few hundred tasks; ``"auto"``
        (default) picks by batch size. The two produce **bit-identical**
        plans — same cores, slots, and rates — enforced by the
        ``wbg_kernel`` differential fuzz check.

        An attached tracer forces the scalar path (the per-decision
        events *are* the heap pops; the vector merge makes the same
        decisions in one shot) — harmless for the result, since the
        kernels are bit-identical.
        """
        by_weight = sorted(tasks, key=lambda t: (-t.cycles, t.task_id))  # heaviest first
        if self._tracer is None and _use_vector(kernel, len(by_weight)):
            return self._schedule_vector(by_weight)
        return self._schedule_scalar(by_weight, kernel=kernel)

    def _schedule_scalar(self, by_weight: Sequence[Task],
                         kernel: str = "scalar") -> list[CoreSchedule]:
        tracer = self._tracer
        heap = IndexedMinHeap()
        next_slot = [1] * self.n_cores
        for j in range(self.n_cores):
            heap.push(j, self.positional_cost(j, 1), tiebreak=j)

        if tracer is not None:
            tracer.emit("wbg.schedule", {
                "n_tasks": len(by_weight), "n_cores": self.n_cores, "kernel": kernel,
            })

        # per-core placements built back-to-front: slot k is the k-th from the end
        backward: list[list[Placement]] = [[] for _ in range(self.n_cores)]
        for task in by_weight:
            j, picked_cost = heap.pop()
            kb = next_slot[j]
            rate = self.ranges[j].rate_for(kb)
            if tracer is not None:
                # every core's candidate slot at pick time — the heap's
                # full state, so `repro explain` can show the runner-ups
                candidates = [
                    [c, next_slot[c], self.positional_cost(c, next_slot[c])]
                    for c in range(self.n_cores)
                ]
                tracer.emit("wbg.slot_pick", {
                    "task_id": task.task_id, "task": task.name,
                    "cycles": task.cycles, "core": j, "slot": kb, "rate": rate,
                    "positional_cost": picked_cost, "candidates": candidates,
                })
            backward[j].append(Placement(task=task, rate=rate))
            next_slot[j] = kb + 1
            heap.push(j, self.positional_cost(j, kb + 1), tiebreak=j)

        return [
            CoreSchedule(reversed(backward[j]), core_index=j) for j in range(self.n_cores)
        ]

    def _schedule_vector(self, by_weight: Sequence[Task]) -> list[CoreSchedule]:
        from repro.models.vectorized import wbg_slot_sequence

        backward: list[list[Placement]] = [[] for _ in range(self.n_cores)]
        if by_weight:
            cores, rates = wbg_slot_sequence(self.ranges, len(by_weight))
            for task, j, rate in zip(by_weight, cores.tolist(), rates.tolist()):
                backward[j].append(Placement(task=task, rate=rate))
        return [
            CoreSchedule(reversed(backward[j]), core_index=j) for j in range(self.n_cores)
        ]

    def schedule_cost(self, schedules: Sequence[CoreSchedule]) -> ScheduleCost:
        """Evaluate a multi-core schedule with each core's own model."""
        total: Optional[ScheduleCost] = None
        for sched in schedules:
            cost = self.models[sched.core_index].core_cost(sched)
            total = cost if total is None else total + cost
        assert total is not None
        return total

    def optimal_cost(self, tasks: Iterable[Task], kernel: str = "auto") -> float:
        """``Σ C*·L`` of the greedy assignment, without materialising schedules.

        Same ``kernel`` contract as :meth:`schedule`; the vector path
        pairs the merged positional costs with descending cycle counts
        in one dot product (summation order differs from the scalar
        running sum, so totals agree to float tolerance, not bitwise —
        the *plan* kernels are the bit-identical ones).
        """
        by_weight = sorted((t.cycles for t in tasks), reverse=True)
        if _use_vector(kernel, len(by_weight)):
            from repro.models.vectorized import wbg_optimal_cost

            return wbg_optimal_cost(self.ranges, by_weight)
        heap = IndexedMinHeap()
        next_slot = [1] * self.n_cores
        for j in range(self.n_cores):
            heap.push(j, self.positional_cost(j, 1), tiebreak=j)
        total = 0.0
        for cycles in by_weight:
            j, cost = heap.pop()
            total += cost * cycles
            next_slot[j] += 1
            heap.push(j, self.positional_cost(j, next_slot[j]), tiebreak=j)
        return total


def schedule_multi_core(
    tasks: Iterable[Task], models: Sequence[CostModel]
) -> list[CoreSchedule]:
    """One-shot Workload Based Greedy (builds and discards the scheduler)."""
    return WorkloadBasedGreedy(models).schedule(tasks)


def schedule_homogeneous_round_robin(
    tasks: Iterable[Task],
    model: CostModel,
    n_cores: int,
    ranges: Optional[DominatingRanges] = None,
) -> list[CoreSchedule]:
    """Theorem 4's round-robin rule for homogeneous platforms.

    The ``R`` heaviest tasks take backward slot 1 (one per core), the
    next ``R`` take slot 2, and so on. On a homogeneous platform this
    produces exactly the same cost as Workload Based Greedy — the
    equivalence is property-tested.
    """
    if n_cores < 1:
        raise ValueError("n_cores must be >= 1")
    if ranges is None:
        ranges = DominatingRanges.cached(model)
    by_weight = sorted(tasks, key=lambda t: (-t.cycles, t.task_id))
    backward: list[list[Placement]] = [[] for _ in range(n_cores)]
    for i, task in enumerate(by_weight):
        core = i % n_cores
        kb = i // n_cores + 1
        backward[core].append(Placement(task=task, rate=ranges.rate_for(kb)))
    return [CoreSchedule(reversed(backward[j]), core_index=j) for j in range(n_cores)]


def brute_force_multi_core(
    tasks: Sequence[Task], models: Sequence[CostModel], max_tasks: int = 6
) -> float:
    """Exhaustive minimum cost over assignments × orders × rates.

    Exponential; used only to validate Theorem 5 on tiny instances.
    Relies on Theorem 3 within each core (sort by cycles) and Lemma 1
    (per-slot optimal rates), both independently brute-force-tested, so
    the search space here is assignments of tasks to cores.
    """
    if len(tasks) > max_tasks:
        raise ValueError(f"brute force limited to {max_tasks} tasks, got {len(tasks)}")
    all_ranges = [DominatingRanges.from_cost_model(m) for m in models]
    n, r = len(tasks), len(models)
    best = math.inf
    for mask in range(r**n):
        groups: list[list[float]] = [[] for _ in range(r)]
        m = mask
        for t in tasks:
            groups[m % r].append(t.cycles)
            m //= r
        cost = 0.0
        for j, g in enumerate(groups):
            g.sort(reverse=True)
            cost += sum(all_ranges[j].cost(kb) * L for kb, L in enumerate(g, start=1))
        best = min(best, cost)
    return best
