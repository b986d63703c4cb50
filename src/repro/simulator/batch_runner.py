"""Execute a batch scheduling plan on the simulated platform.

Takes the per-core :class:`~repro.models.cost.CoreSchedule` plans any
batch scheduler produces (WBG, OLB, Power Saving, ...) and runs them on
:class:`~repro.simulator.platform.SimCore` instances — ideally (the
"Sim" bars of Fig. 1) or under a
:class:`~repro.simulator.contention.ContentionModel` (the "Exp" bars).

The run is event-driven over task completions: between completions
every core's rate, task, and co-runner count are constant, so each
completion time is exact (no time-stepping error). Measured energy and
turnaround are then converted to money with the same ``Re``/``Rt`` as
the analytical model, which lets the model-verification experiment
compare predicted vs "measured" cost like the paper does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.models.cost import CoreSchedule, ScheduleCost, check_prices
from repro.models.rates import RateTable
from repro.models.task import Task
from repro.simulator.contention import ContentionModel, NO_CONTENTION
from repro.simulator.platform import SimCore, TaskExecution
from repro.simulator.power import PowerMeter


@dataclass(frozen=True)
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


@dataclass
class BatchResult:
    """Everything measured during one batch execution.

    ``meters`` holds each core's power meter (indexed by core, in
    ascending ``core_index`` order); with ``keep_trace=True`` they
    retain the full power trace for
    :mod:`repro.analysis.powerprofile`.
    """

    records: list[TaskRecord]
    makespan: float
    energy_joules: float
    contention: ContentionModel
    meters: tuple = ()

    @property
    def turnaround_sum(self) -> float:
        return sum(r.turnaround for r in self.records)

    @property
    def busy_seconds(self) -> float:
        return sum(r.finish - r.start for r in self.records)

    def cost(self, re: float, rt: float) -> ScheduleCost:
        """Convert measurements to money at rates ``Re`` (¢/J) and ``Rt`` (¢/s)."""
        check_prices(re, rt)
        return ScheduleCost(
            energy_cost=re * self.energy_joules,
            temporal_cost=rt * self.turnaround_sum,
            energy_joules=self.energy_joules,
            busy_seconds=self.busy_seconds,
            makespan=self.makespan,
            turnaround_sum=self.turnaround_sum,
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
    idle_power: float = 0.0,
    keep_trace: bool = False,
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
    idle_power, keep_trace:
        Forwarded to each core's power meter.
    """
    if not schedules:
        raise ValueError("at least one core schedule is required")
    indices = [s.core_index for s in schedules]
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate core_index in schedules: {indices}")
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
        s.core_index: SimCore(
            s.core_index,
            table_for(s.core_index),
            contention=contention,
            meter=PowerMeter(idle_power=idle_power, keep_trace=keep_trace),
        )
        for s in schedules
    }
    pending = {s.core_index: iter(s.placements) for s in schedules}
    records: list[TaskRecord] = []

    now = 0.0
    # An idle core never restarts (its plan is exhausted), so an unchanged
    # busy count means an unchanged busy set and unchanged co-runner counts.
    refreshed_busy = -1

    def refresh_co_runners() -> None:
        nonlocal refreshed_busy
        busy = sum(1 for c in cores.values() if c.busy)
        if busy == refreshed_busy:
            return
        refreshed_busy = busy
        for c in cores.values():
            c.set_co_runners(max(0, busy - 1) if c.busy else busy, now)

    def start_next(core_index: int) -> None:
        placement = next(pending[core_index], None)
        if placement is None:
            return
        execution = TaskExecution(task=placement.task, remaining_cycles=placement.task.cycles)
        cores[core_index].start(execution, placement.rate, now)

    for idx in cores:
        start_next(idx)
    refresh_co_runners()

    guard = 0
    total_tasks = sum(len(s) for s in schedules)
    while True:
        busy = [c for c in cores.values() if c.current is not None]
        if not busy:
            break
        guard += 1
        if guard > 4 * total_tasks + 16:
            raise RuntimeError("batch run failed to converge — completion events stalled")
        next_time = min(c.next_completion_time(now) for c in busy)
        if not math.isfinite(next_time):
            raise RuntimeError(
                f"batch run stalled at t={now!r}: busy cores {sorted(c.index for c in busy)} "
                f"have no finite completion time ({next_time!r})"
            )
        now = next_time
        # advance everyone to the completion instant, then retire finished tasks
        for c in cores.values():
            c.advance(now)
        for c in busy:
            execution = c.current
            if execution is None or not execution.done:
                continue
            c.complete(now)
            records.append(
                TaskRecord(
                    task=execution.task,
                    core=c.index,
                    rate=c.rate,
                    start=execution.started_at if execution.started_at is not None else 0.0,
                    finish=now,
                    energy_joules=execution.energy_joules,
                )
            )
            start_next(c.index)
        refresh_co_runners()

    return BatchResult(
        records=records,
        makespan=now,
        energy_joules=sum(r.energy_joules for r in records),
        contention=contention,
        meters=tuple(cores[idx].meter for idx in sorted(cores)),
    )
