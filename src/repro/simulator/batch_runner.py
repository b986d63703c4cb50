"""Execute a batch scheduling plan on the simulated platform.

Takes the per-core :class:`~repro.models.cost.CoreSchedule` plans any
batch scheduler produces (WBG, OLB, Power Saving, ...) and runs them on
:class:`~repro.simulator.platform.SimCore` instances — ideally (the
"Sim" bars of Fig. 1) or under a
:class:`~repro.simulator.contention.ContentionModel` (the "Exp" bars).

The run is event-driven over task completions, kept in a heap of
``(completion time, core index)`` entries, one per busy core. Between
its own breakpoints a core's rate, task and co-runner count are
constant, so its completion time is exact (no time-stepping error) and
the core is integrated only when it completes, starts, or sees the busy
count change; another core's completion leaves it alone. Measured energy and
turnaround are then converted to money with the same ``Re``/``Rt`` as
the analytical model, which lets the model-verification experiment
compare predicted vs "measured" cost like the paper does.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

from repro.models.cost import CoreSchedule, ScheduleCost, check_prices
from repro.models.rates import RateTable
from repro.models.records import slot_builder
from repro.models.task import Task, check_unique_ids
from repro.simulator.contention import ContentionModel, NO_CONTENTION
from repro.simulator.platform import SimCore, TaskExecution


@dataclass(frozen=True, slots=True)
class TaskRecord:
    """Measured outcome of one task in a batch run."""

    task: Task
    core: int
    rate: float
    start: float
    finish: float
    energy_joules: float

    @property
    def turnaround(self) -> float:
        return self.finish - self.task.arrival


_make_record = slot_builder(TaskRecord)


@dataclass
class BatchResult:
    """Everything measured during one batch execution.

    ``cores`` holds the plan's core indices in ascending order, including
    a core whose plan is empty; :func:`repro.analysis.powerprofile.power_trace`
    derives each one's power over ``[0, makespan]`` from the records.
    """

    records: list[TaskRecord]
    makespan: float
    energy_joules: float
    contention: ContentionModel
    cores: tuple[int, ...] = ()

    @property
    def turnaround_sum(self) -> float:
        return sum(r.turnaround for r in self.records)

    @property
    def busy_seconds(self) -> float:
        return sum(r.finish - r.start for r in self.records)

    def cost(self, re: float, rt: float) -> ScheduleCost:
        """Convert measurements to money at rates ``Re`` (¢/J) and ``Rt`` (¢/s)."""
        check_prices(re, rt)
        turnaround_sum = self.turnaround_sum
        return ScheduleCost(
            energy_cost=re * self.energy_joules,
            temporal_cost=rt * turnaround_sum,
            energy_joules=self.energy_joules,
            busy_seconds=self.busy_seconds,
            makespan=self.makespan,
            turnaround_sum=turnaround_sum,
            task_count=len(self.records),
        )

    def record_for(self, task_id: int) -> TaskRecord:
        for r in self.records:
            if r.task.task_id == task_id:
                return r
        raise KeyError(f"no record for task_id {task_id}")


def run_batch(
    schedules: Sequence[CoreSchedule],
    tables: Sequence[RateTable] | RateTable,
    contention: ContentionModel = NO_CONTENTION,
) -> BatchResult:
    """Run per-core plans to completion and measure time/energy.

    Parameters
    ----------
    schedules:
        One :class:`CoreSchedule` per core, as produced by the batch
        schedulers. ``core_index`` fields must be unique.
    tables:
        Either one :class:`RateTable` shared by all cores (homogeneous)
        or a sequence indexed by ``core_index`` (heterogeneous); every
        ``core_index`` must then index into it.
    contention:
        Interference model; :data:`NO_CONTENTION` reproduces the
        analytical model exactly (the property tests assert equality
        with :meth:`CostModel.core_cost`).
    """
    if not schedules:
        raise ValueError("at least one core schedule is required")
    indices = [s.core_index for s in schedules]
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate core_index in schedules: {indices}")
    check_unique_ids(pl.task for s in schedules for pl in s.placements)
    if not isinstance(tables, RateTable):
        for i in indices:
            if not 0 <= i < len(tables):
                raise ValueError(
                    f"core_index {i} has no rate table: got {len(tables)} tables"
                )

    def table_for(core_index: int) -> RateTable:
        if isinstance(tables, RateTable):
            return tables
        return tables[core_index]

    cores: dict[int, SimCore] = {
        s.core_index: SimCore(s.core_index, table_for(s.core_index), contention)
        for s in schedules
    }
    pending = {s.core_index: iter(s.placements) for s in schedules}
    records: list[TaskRecord] = []

    now = 0.0
    heap: list[tuple[float, int]] = []  # (completion time, core index), one per busy core

    def push(core: SimCore) -> None:
        when = core.next_completion_time()
        if not math.isfinite(when):
            busy = sorted(c.index for c in cores.values() if c.busy)
            raise RuntimeError(
                f"batch run stalled at t={now!r}: busy cores {busy} "
                f"have no finite completion time ({when!r})"
            )
        heapq.heappush(heap, (when, core.index))

    # An idle core never restarts (its plan is exhausted), so an unchanged
    # busy count means an unchanged busy set and unchanged co-runner counts.
    refreshed_busy = -1

    def refresh_co_runners() -> None:
        """Re-time every core if the busy count changed.

        The count is the contention input, so every core is advanced to
        ``now`` (its breakpoint) and the heap rebuilt from the busy
        cores' new completion times.
        """
        nonlocal refreshed_busy
        busy = sum(1 for c in cores.values() if c.busy)
        if busy == refreshed_busy:
            return
        refreshed_busy = busy
        for c in cores.values():
            c.set_co_runners(max(0, busy - 1) if c.busy else busy, now)
        heap.clear()
        for c in cores.values():
            if c.busy:
                push(c)

    def start_next(core: SimCore) -> bool:
        placement = next(pending[core.index], None)
        if placement is None:
            return False
        execution = TaskExecution(task=placement.task, remaining_cycles=placement.task.cycles)
        core.start(execution, placement.rate, now)
        return True

    for core in cores.values():
        start_next(core)
    refresh_co_runners()

    total_tasks = sum(len(s) for s in schedules)
    while heap:
        if len(records) == total_tasks:  # one pop per task, exactly
            raise RuntimeError("batch run failed to converge — completion events stalled")
        now, idx = heapq.heappop(heap)
        core = cores[idx]
        execution = core.complete(now)
        start = execution.started_at
        records.append(_make_record(
            execution.task, idx, core.rate, start if start is not None else 0.0, now,
            execution.energy_joules,
        ))
        if start_next(core):
            push(core)  # same busy set, so no other core changed state
        else:
            refresh_co_runners()  # the busy count dropped

    return BatchResult(
        records=records,
        makespan=now,
        energy_joules=sum(r.energy_joules for r in records),
        contention=contention,
        cores=tuple(sorted(cores)),
    )
