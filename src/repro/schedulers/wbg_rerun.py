"""The migration alternative Section IV rejects, as a real policy.

"Note that the Workload Based Greedy algorithm can be used to
redistribute all tasks to cores when a new task arrives. According to
Theorem 5, rearranging the tasks yields the minimum cost. However,
because the overhead incurred by the time and energy used to migrate
tasks could impact the performance, we need a lightweight strategy
without task migration."

:class:`WBGRerunScheduler` implements that rejected alternative so the
trade-off can be measured rather than asserted: on every
non-interactive arrival it pools *all* waiting (not-yet-started) tasks
across cores and re-runs Algorithm 3 over the pool, freely moving
queued tasks between cores. Running tasks are never migrated (they are
outside the queues). The policy counts reassignments so the harness can
charge a per-migration cost.

Interactive handling matches LMC (Equation 27 at the core level reduces
to least-delayed on homogeneous cores).
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from repro.core.batch_multi import WorkloadBasedGreedy
from repro.core.dominating import DominatingRanges
from repro.models.cost import CostModel
from repro.models.rates import RateTable, per_core_tables
from repro.models.task import Task, TaskKind
from repro.simulator.online_runner import CoreView


class WBGRerunScheduler:
    """Full Workload Based Greedy re-plan on every non-interactive arrival."""

    def __init__(
        self,
        tables: Sequence[RateTable] | RateTable,
        n_cores: int,
        re: float,
        rt: float,
    ) -> None:
        if n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        self.n_cores = n_cores
        self.models = [CostModel(t, re, rt) for t in per_core_tables(tables, n_cores)]
        self.wbg = WorkloadBasedGreedy(self.models)
        self.ranges: list[DominatingRanges] = self.wbg.ranges
        self._queues: list[deque[Task]] = [deque() for _ in range(n_cores)]
        self._home: dict[int, int] = {}  # task_id -> currently planned core
        #: queued tasks whose planned core changed across re-plans —
        #: each is a migration the paper's LMC avoids.
        self.migrations = 0
        self._pending_planned: Optional[int] = None

    # -- re-planning -------------------------------------------------------------
    def _replan(self, extra: Task) -> int:
        """Re-run WBG over all waiting tasks plus ``extra``; returns
        ``extra``'s planned core."""
        pool = [t for q in self._queues for t in q]
        pool.append(extra)
        schedules = self.wbg.schedule(pool)
        new_home: dict[int, int] = {}
        for sched in schedules:
            lane = deque()
            for pl in sched.placements:
                lane.append(pl.task)
                new_home[pl.task.task_id] = sched.core_index
            self._queues[sched.core_index] = lane
        for task_id, core in new_home.items():
            old = self._home.get(task_id)
            if old is not None and old != core:
                self.migrations += 1
        self._home = new_home
        return new_home[extra.task_id]

    # -- OnlinePolicy protocol -------------------------------------------------------
    def select_core(self, task: Task, views: Sequence[CoreView]) -> int:
        """Interactive tasks go to the Eq. 27 argmin core; non-interactive
        arrivals trigger a full WBG re-plan that decides their core."""
        if task.kind is TaskKind.INTERACTIVE:
            delayed = [
                len(self._queues[j])
                + (1 if views[j].running_kind is TaskKind.NONINTERACTIVE else 0)
                for j in range(self.n_cores)
            ]
            best = 0
            best_cost = float("inf")
            for j, model in enumerate(self.models):
                c = model.interactive_marginal_cost(task.cycles, delayed[j])
                if c < best_cost:
                    best_cost = c
                    best = j
            return best
        core = self._replan(task)
        # the task is in the plan already; remember so enqueue doesn't double-add
        self._pending_planned = task.task_id
        return core

    def enqueue_noninteractive(self, core: int, task: Task) -> None:
        """Record the task in its re-planned lane (no-op if the re-plan
        in :meth:`select_core` already placed it)."""
        if self._pending_planned == task.task_id:
            self._pending_planned = None
            return
        self._queues[core].append(task)
        self._home[task.task_id] = core

    def dequeue_noninteractive(self, core: int) -> Optional[Task]:
        """Pop the head of the core's current WBG lane, if any."""
        q = self._queues[core]
        if not q:
            return None
        task = q.popleft()
        self._home.pop(task.task_id, None)
        return task

    def rate_for_noninteractive(self, core: int, task: Task) -> Optional[float]:
        """The dominating rate for backward position (waiting + 1) — the
        running task's slot, as in LMC."""
        return self.ranges[core].rate_for(len(self._queues[core]) + 1)

    def rate_for_interactive(self, core: int, task: Task) -> Optional[float]:
        """The core's maximum rate (interactive tasks run flat out)."""
        return self.models[core].table.max_rate
