"""Opportunistic Load Balancing [12] — batch plan and online policy.

OLB "schedules a task on the core with the earliest ready-to-execute
time. The main objective of OLB is to ensure the cores are fully
utilized and finish the tasks in the shortest possible time" (Section
V-A3), and in the online experiments it "keeps the processing frequency
of each core at the highest level" (Section V-B). Under the batch
experiments its frequencies come from the ondemand governor, which
pins a fully loaded core at the maximum — so the batch plan uses the
table's top rate throughout.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from repro.models.cost import CoreSchedule, Placement
from repro.models.rates import RateTable, per_core_tables
from repro.models.task import Task, TaskKind
from repro.simulator.online_runner import CoreView


def olb_plan(
    tasks: Iterable[Task],
    table: RateTable,
    n_cores: int,
    rate: Optional[float] = None,
) -> list[CoreSchedule]:
    """Batch OLB: greedy earliest-ready-core assignment at one fixed rate.

    Tasks are taken in their given (submission) order — OLB does not
    reorder; it only balances. ``rate`` defaults to the table maximum
    (what the ondemand governor converges to under full load).
    """
    if n_cores < 1:
        raise ValueError("n_cores must be >= 1")
    p = table.max_rate if rate is None else rate
    table.index_of(p)  # validate
    ready = [0.0] * n_cores
    lanes: list[list[Placement]] = [[] for _ in range(n_cores)]
    for task in tasks:
        j = min(range(n_cores), key=lambda i: (ready[i], i))
        lanes[j].append(Placement(task=task, rate=p))
        ready[j] += task.cycles * table.time(p)
    return [CoreSchedule(lanes[j], core_index=j) for j in range(n_cores)]


class OLBOnlineScheduler:
    """Online OLB: earliest-ready core, FIFO queues, maximum frequency.

    Implements the :class:`~repro.simulator.online_runner.OnlinePolicy`
    protocol. The ready-to-execute estimate for a core is the time
    until the arriving task could start there, respecting priorities:
    an interactive task can start immediately unless the core is
    running interactive work (then it waits for the interactive
    backlog); a non-interactive task waits for everything already
    committed to the core.
    """

    def __init__(self, tables: Sequence[RateTable] | RateTable, n_cores: int) -> None:
        if n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        self.n_cores = n_cores
        self._tables = per_core_tables(tables, n_cores)
        self._queues: list[deque[Task]] = [deque() for _ in range(n_cores)]

    # -- ready-time estimation ----------------------------------------------------
    def _seconds(self, j: int, cycles: float) -> float:
        return cycles * self._tables[j].time(self._tables[j].max_rate)

    def _ready_in(self, j: int, view: CoreView, kind: TaskKind) -> float:
        interactive_ahead = view.interactive_backlog_cycles
        if view.running_kind is TaskKind.INTERACTIVE:
            interactive_ahead += view.running_remaining_cycles
        if kind is TaskKind.INTERACTIVE:
            # would preempt NI work; waits only for interactive tasks ahead
            return self._seconds(j, interactive_ahead)
        committed = interactive_ahead + view.preempted_remaining_cycles
        if view.running_kind is TaskKind.NONINTERACTIVE:
            committed += view.running_remaining_cycles
        committed += self._queued_cycles(j)
        return self._seconds(j, committed)

    def _queued_cycles(self, j: int) -> float:
        """Cycles waiting in core ``j``'s non-interactive queue."""
        return sum(t.cycles for t in self._queues[j])

    # -- OnlinePolicy protocol -------------------------------------------------------
    def select_core(self, task: Task, views: Sequence[CoreView]) -> int:
        """The core that could start this task soonest (ties → lowest
        index), per OLB's earliest-ready placement."""
        return min(
            range(self.n_cores),
            key=lambda j: (self._ready_in(j, views[j], task.kind), j),
        )

    def enqueue_noninteractive(self, core: int, task: Task) -> None:
        """Append to the core's FIFO queue (same-priority tasks run FIFO)."""
        self._queues[core].append(task)

    def dequeue_noninteractive(self, core: int) -> Optional[Task]:
        """Pop the core's FIFO head, if any."""
        q = self._queues[core]
        return q.popleft() if q else None

    def rate_for_noninteractive(self, core: int, task: Task) -> Optional[float]:
        """The core's maximum rate — OLB always runs flat out."""
        return self._tables[core].max_rate

    def rate_for_interactive(self, core: int, task: Task) -> Optional[float]:
        """The core's maximum rate — OLB always runs flat out."""
        return self._tables[core].max_rate
