"""Multi-core batch scheduling: Theorem 4 and Algorithm 3 (WBG).

**Homogeneous platforms (Theorem 4).** All cores share ``E``/``T``, so
the positional costs are identical everywhere and a round-robin that
hands the ``i``-th heaviest task backward position ``⌈i/R⌉`` on core
``i mod R`` is optimal.

**Heterogeneous platforms (Theorem 5, Algorithm 3 — Workload Based
Greedy).** Cores may differ in ``E_j``/``T_j``. Sort tasks by
descending cycle count and hand each, heaviest first, the globally
cheapest unused slot: the smallest backward positional cost
``C*_j(k_j)`` over every core's next slot, at that slot's dominating
rate. Because ``C*_j(k)`` is independent of the workload (Lemma 1) and
increases in the backward position ``k`` (Lemma 2 mirrored), this
greedy pairing of heavier tasks with globally smaller positional costs
minimises ``Σ C*·L`` — an exchange argument identical to Theorem 3's.

The paper's min-heap loop is the test oracle
:func:`repro.verify.reference.wbg_heap_plan`; here one NumPy merge over
each core's positional costs
(:func:`repro.models.vectorized.wbg_slot_sequence`) makes the same
picks, bit for bit (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.core.dominating import DominatingRanges
from repro.models.cost import CoreSchedule, CostModel, Placement, ScheduleCost, make_placement
from repro.models.task import Task

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.tracer import Tracer


class WorkloadBasedGreedy:
    """Algorithm 3 for a fixed (possibly heterogeneous) platform.

    Parameters
    ----------
    models:
        One :class:`CostModel` per core. All cores must share ``Re``
        and ``Rt`` (they are properties of the pricing, not of a core).
        A homogeneous platform simply repeats the same model.

    Each core's dominating ranges are built once, here (Lemma 1: they
    do not depend on the workload), so repeated :meth:`schedule` calls
    on one instance reuse them. Each :meth:`schedule` call fills the
    positional costs ``CB*(1..n)`` it merges afresh.

    ``tracer`` (see :mod:`repro.obs.tracer`) records one
    ``ranges.build`` event per core at construction, and one
    ``wbg.schedule`` event plus one ``wbg.slot_pick`` event per task
    during :meth:`schedule`, replayed from the merged pick sequence.
    The plan is the same with or without a tracer.
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
        self.ranges = [DominatingRanges.from_cost_model(m) for m in models]
        self._tracer = tracer
        if tracer is not None:
            from repro.obs.events import ranges_event_data

            for j, r in enumerate(self.ranges):
                tracer.emit("ranges.build", ranges_event_data(r, core=j))

    @property
    def n_cores(self) -> int:
        return len(self.models)

    def schedule(self, tasks: Iterable[Task]) -> list[CoreSchedule]:
        """Assign every task a core, a queue slot, and a rate.

        Returns one :class:`CoreSchedule` per core, in execution order
        (shortest assigned task first). The picks come from
        :func:`~repro.models.vectorized.wbg_slot_sequence`; the
        ``wbg_kernel`` differential check holds them bit-identical to
        the heap loop in :mod:`repro.verify.reference`.
        """
        # looked up on the module at call time, so a patched kernel is seen
        from repro.models import vectorized

        by_weight = sorted(tasks, key=lambda t: (-t.cycles, t.task_id))  # heaviest first
        n = len(by_weight)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit("wbg.schedule", {
                "n_tasks": n, "n_cores": self.n_cores, "kernel": "auto",
            })
        # per-core placements built back-to-front: slot k is the k-th from the end
        backward: list[list[Placement]] = [[] for _ in range(self.n_cores)]
        if n:
            merged = vectorized.wbg_slot_sequence(self.ranges, n)
            cores, rates = merged[0].tolist(), merged[1].tolist()
            if tracer is not None:
                self._emit_slot_picks(tracer, by_weight, cores, rates)
            for task, j, rate in zip(by_weight, cores, rates):
                backward[j].append(make_placement(task, rate))
        return [
            CoreSchedule(reversed(backward[j]), core_index=j) for j in range(self.n_cores)
        ]

    def _emit_slot_picks(self, tracer: "Tracer", by_weight: Sequence[Task],
                         cores: list[int], rates: list[float]) -> None:
        """One ``wbg.slot_pick`` per task, replayed from the merged picks."""
        from repro.models.vectorized import positional_cost_prefix

        prefix = [positional_cost_prefix(r, len(by_weight)).tolist() for r in self.ranges]
        next_slot = [1] * self.n_cores
        for task, j, rate in zip(by_weight, cores, rates):
            kb = next_slot[j]
            # every core's candidate slot at pick time, so `repro explain`
            # can show the runner-ups
            candidates = [[c, k, prefix[c][k - 1]] for c, k in enumerate(next_slot)]
            tracer.emit("wbg.slot_pick", {
                "task_id": task.task_id, "task": task.name,
                "cycles": task.cycles, "core": j, "slot": kb, "rate": rate,
                "positional_cost": prefix[j][kb - 1], "candidates": candidates,
            })
            next_slot[j] = kb + 1

    def schedule_cost(self, schedules: Sequence[CoreSchedule]) -> ScheduleCost:
        """Evaluate a multi-core schedule with each core's own model."""
        if not schedules:
            raise ValueError("schedule_cost needs at least one core schedule")
        total = self.models[schedules[0].core_index].core_cost(schedules[0])
        for sched in schedules[1:]:
            total = total + self.models[sched.core_index].core_cost(sched)
        return total

    def optimal_cost(self, tasks: Iterable[Task]) -> float:
        """``Σ C*·L`` of the greedy assignment, without materialising schedules.

        One dot product of the merged positional costs with the
        descending cycle counts
        (:func:`~repro.models.vectorized.wbg_optimal_cost`).
        """
        from repro.models.vectorized import wbg_optimal_cost

        return wbg_optimal_cost(self.ranges, [t.cycles for t in tasks])


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
        ranges = DominatingRanges.from_cost_model(model)
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
