"""Shortest-Job-First at maximum frequency — the decomposition baseline.

Least Marginal Cost combines two mechanisms: (1) cost-aware *ordering*
(each queue kept in Theorem 3's shortest-first order) and (2)
positional *DVFS* (per-slot frequencies from the dominating ranges).
This policy keeps mechanism (1) and drops (2) — SJF queues, everything
at the core's maximum frequency — so the decomposition ablation can
attribute LMC's Figure 3 win between ordering and frequency scaling:

* OLB   = FIFO ordering + max frequency
* SJF   = cost-aware ordering + max frequency      (this policy)
* LMC   = cost-aware ordering + positional DVFS

Placement follows OLB's earliest-ready rule (the placement dimension is
held fixed so the comparison isolates ordering/DVFS).
"""

from __future__ import annotations

import bisect
from typing import Optional, Sequence

from repro.models.rates import RateTable
from repro.models.task import Task
from repro.schedulers.olb import OLBOnlineScheduler


class SJFMaxRateScheduler(OLBOnlineScheduler):
    """Earliest-ready placement, shortest-job-first queues, max frequency.

    OLB with its FIFO queues swapped for cycle-sorted ones: placement
    and rates are OLB's, and the earliest-ready estimate counts the
    sorted backlog through :meth:`_queued_cycles`.
    """

    def __init__(self, tables: Sequence[RateTable] | RateTable, n_cores: int) -> None:
        super().__init__(tables, n_cores)
        # sorted waiting lists: (cycles, task_id) keeps ties deterministic
        self._sorted: list[list[tuple[float, int, Task]]] = [[] for _ in range(n_cores)]

    def _queued_cycles(self, j: int) -> float:
        return sum(c for c, _, _ in self._sorted[j])

    # -- OnlinePolicy protocol --------------------------------------------------
    def enqueue_noninteractive(self, core: int, task: Task) -> None:
        """Insert in shortest-job-first order: sorted by (cycles, task_id)."""
        entry = (task.cycles, task.task_id, task)
        q = self._sorted[core]
        q.insert(bisect.bisect(q, entry[:2], key=lambda e: (e[0], e[1])), entry)

    def dequeue_noninteractive(self, core: int) -> Optional[Task]:
        """Pop the shortest queued job, if any."""
        q = self._sorted[core]
        if not q:
            return None
        return q.pop(0)[2]
