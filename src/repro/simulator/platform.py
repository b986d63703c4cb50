"""Simulated cores with per-core DVFS.

A :class:`SimCore` executes one :class:`TaskExecution` at a time at its
current frequency. Progress is integrated piecewise, and only at the
core's own breakpoints: every state change (start, rate switch,
co-run count change, preemption, completion) first calls
:meth:`SimCore.advance`, which converts the elapsed wall time since the
last update into completed cycles (through the optional
:class:`~repro.simulator.contention.ContentionModel`) and charges the
running task its energy. The task's books are the only energy ledger:
a run is priced from its task records, and a batch run's power trace
is derived from them afterwards (:mod:`repro.analysis.powerprofile`).
Between two breakpoints the remaining work falls on one line, so the
runners never advance a core for another core's event:
:meth:`SimCore.next_completion_time` extends the line from the last
update, and :meth:`SimCore.remaining_at` and :meth:`SimCore.finished_by`
read it at any instant without integrating.

The effective seconds per cycle and the busy watts depend only on the
(rate, co-runner count) state, so the core computes both on its first
entry to a state and looks them up on every later one;
:meth:`SimCore.advance` integrates with the two cached floats.

Energy is booked as ``busy power × wall time`` — the physically correct
reading a wall meter gives — so contention-stretched executions cost
*more* energy per useful cycle, exactly the effect behind the paper's
Fig. 1 "Exp > Sim" gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.models.rates import RateTable
from repro.models.task import Task
from repro.models.tolerances import CLOCK_ULPS, CYCLE_EPS, CYCLE_OVERRUN_TOL
from repro.simulator.contention import ContentionModel, NO_CONTENTION


def finish_tolerance(cycles: float, now: float, time_per_cycle: float) -> float:
    """Cycles a task may be short of, or past, its exact finish when its
    completion event fires at ``now``, and still count as finished.

    Two roundings add up: piecewise integration leaves a remainder on the
    scale of the task's own size (:data:`CYCLE_EPS` of it, as in
    :attr:`TaskExecution.done`), and the event time is the finish rounded
    to the clock, up to :data:`CLOCK_ULPS` ulps of ``now`` — at a clock
    of 1e9 s about 1e-7 s, more than ``CYCLE_EPS`` of a tiny task. The
    simulator treats this residue one way: it is dropped, never charged,
    whether it is work left at :meth:`SimCore.complete` or an overshoot
    clipped in :meth:`SimCore.advance`. A task's busy time and energy can
    thus fall short of its exact cycle count by this many cycles' worth,
    and its busy time never exceeds the wall span it ran in.
    """
    return (CYCLE_EPS * (cycles if cycles > 1.0 else 1.0)
            + CLOCK_ULPS * math.ulp(now) / time_per_cycle)


@dataclass(slots=True)
class TaskExecution:
    """Mutable execution state of one task instance on (at most) one core."""

    task: Task
    remaining_cycles: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    energy_joules: float = 0.0
    busy_seconds: float = 0.0
    preemptions: int = 0

    @property
    def done(self) -> bool:
        return self.done_with(self.remaining_cycles)

    def done_with(self, remaining_cycles: float) -> bool:
        """Whether ``remaining_cycles`` left of this task counts as finished."""
        # Relative to the task's size: progress is integrated piecewise
        # (one subtraction per rate switch / governor sample), so the
        # residual at the scheduled completion instant scales with the
        # cycle count, not with any fixed epsilon (``max(1.0, c)``, unrolled).
        cycles = self.task.cycles
        return remaining_cycles <= CYCLE_EPS * (cycles if cycles > 1.0 else 1.0)


class SimCore:
    """One core: current rate, current execution, progress integration."""

    def __init__(
        self, index: int, table: RateTable, contention: ContentionModel = NO_CONTENTION
    ) -> None:
        self.index = index
        self.table = table
        self.contention = contention
        self.current: Optional[TaskExecution] = None
        self._last_update = 0.0
        # (time_per_cycle, busy_watts) of each (rate, co-runners) entered
        self._constants: dict[tuple[float, int], tuple[float, float]] = {}
        self._set_state(table.min_rate, 0)

    # -- state queries ------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self.current is not None

    @property
    def rate(self) -> float:
        return self._rate

    @rate.setter
    def rate(self, rate: float) -> None:
        """Set the frequency without integrating progress (see :meth:`set_rate`)."""
        if rate != self._rate:
            self._set_state(rate, self._co_runners)

    def _set_state(self, rate: float, co_runners: int) -> None:
        """Enter (rate, co-runners) with its constants, computed on first entry."""
        constants = self._constants.get((rate, co_runners))
        if constants is None:
            table = self.table
            i = table.index_of(rate)  # validates the rate
            nominal = table.time_per_cycle[i]
            # NO_CONTENTION returns ``nominal`` exactly (t·1.0 + 0.0·t)
            constants = self._constants[rate, co_runners] = (
                self.contention.effective_time_per_cycle(nominal, table.time_per_cycle[0],
                                                         co_runners),
                table.energy_per_cycle[i] / nominal)
        self._time_per_cycle, self._busy_watts = constants
        self._rate = rate
        self._co_runners = co_runners

    def effective_time_per_cycle(self) -> float:
        """Seconds per cycle right now, contention included."""
        return self._time_per_cycle

    def completion_in(self) -> float:
        """Seconds from the last update until the current task finishes.

        ``inf`` when idle. Valid until the next state change (rates,
        co-runners and the running task are piecewise constant).
        """
        if self.current is None:
            return math.inf
        return self.current.remaining_cycles * self._time_per_cycle

    @property
    def last_update(self) -> float:
        return self._last_update

    def next_completion_time(self) -> float:
        """Absolute time the current task finishes if nothing else changes.

        The last update plus the remaining work at the current rate: a
        core is advanced only at its own breakpoints, so the last update
        may lie behind the runner's clock (or ahead of it, past a
        switch-overhead window :meth:`start` fast-forwarded over).
        """
        current = self.current
        if current is None:
            return math.inf
        return self._last_update + current.remaining_cycles * self._time_per_cycle

    def remaining_at(self, now: float) -> float:
        """Cycles the running task has left at ``now``, without integrating.

        What :meth:`advance` to ``now`` would leave (an overshoot reads
        as 0.0); 0.0 when idle.
        """
        current = self.current
        if current is None:
            return 0.0
        dt = now - self._last_update
        if not dt > 0.0:
            return current.remaining_cycles
        left = current.remaining_cycles - dt / self._time_per_cycle
        return left if left > 0.0 else 0.0

    def finished_by(self, now: float) -> bool:
        """Whether the running task counts as finished at ``now``
        (:meth:`TaskExecution.done_with` of :meth:`remaining_at`)."""
        current = self.current
        return current is not None and current.done_with(self.remaining_at(now))

    # -- progress integration --------------------------------------------------------
    def advance(self, now: float) -> None:
        """Integrate progress and energy from the last update to ``now``.

        ``now`` earlier than the last update is a no-op: it happens
        legitimately when an unrelated event lands inside a
        switch-overhead window that :meth:`start` fast-forwarded over.
        """
        dt = now - self._last_update
        if not dt > 0.0:
            return
        current = self.current
        if current is not None:
            tpc = self._time_per_cycle
            cycles_done = dt / tpc
            remaining = current.remaining_cycles
            # guard: never execute more cycles than remain (caller should
            # schedule the completion event at the exact finish time, which
            # lands within finish_tolerance of it)
            if cycles_done > remaining + CYCLE_OVERRUN_TOL and (
                    cycles_done - remaining
                    > CYCLE_OVERRUN_TOL + finish_tolerance(current.task.cycles, now, tpc)):
                raise RuntimeError(
                    f"core {self.index} overran task "
                    f"{current.task.task_id}: {cycles_done} > {remaining} cycles"
                )
            if cycles_done > remaining:
                # the completion event time rounds at the ulp of the
                # absolute clock; clip the overshoot so the booked
                # busy time and energy match the work actually left
                # (for a tiny task, watts × overshoot can exceed its
                # whole physical energy bound)
                cycles_done = remaining
                dt = cycles_done * tpc
            current.remaining_cycles = remaining - cycles_done
            current.busy_seconds += dt
            current.energy_joules += self._busy_watts * dt
        self._last_update = now

    # -- state changes (caller must advance() to `now` first or pass now) -------------
    def set_rate(self, rate: float, now: float) -> None:
        """Switch frequency at ``now`` (progress up to ``now`` accrued first)."""
        self.advance(now)
        self.rate = rate

    def set_co_runners(self, count: int, now: float) -> None:
        """Update how many *other* cores are busy (contention input)."""
        self.advance(now)
        if count < 0:
            raise ValueError("co_runners must be >= 0")
        if count != self._co_runners:
            self._set_state(self._rate, count)

    def start(self, execution: TaskExecution, rate: float, now: float) -> None:
        """Begin (or resume) executing ``execution`` at ``rate``."""
        self.advance(now)
        if self.current is not None:
            raise RuntimeError(f"core {self.index} is already busy")
        if execution.done_with(execution.remaining_cycles):
            raise ValueError("cannot start a finished execution")
        if rate != self._rate:
            self._set_state(rate, self._co_runners)
        self.current = execution
        if execution.started_at is None:
            execution.started_at = now
        overhead = self.contention.switch_overhead_s
        if overhead > 0:
            # model the dispatch/DVFS latency as lost wall time at busy power
            execution.energy_joules += self._busy_watts * overhead
            execution.busy_seconds += overhead
            self._last_update = now + overhead

    def preempt(self, now: float) -> TaskExecution:
        """Stop the running task at ``now`` and hand its state back."""
        self.advance(now)
        if self.current is None:
            raise RuntimeError(f"core {self.index} has nothing to preempt")
        execution = self.current
        execution.preemptions += 1
        self.current = None
        return execution

    def complete(self, now: float) -> TaskExecution:
        """Finish the running task at ``now`` (at most
        :func:`finish_tolerance` cycles may be left)."""
        self.advance(now)
        if self.current is None:
            raise RuntimeError(f"core {self.index} has nothing to complete")
        execution = self.current
        # the residue within finish_tolerance is dropped, uncharged, as
        # the overrun clip in advance drops an overshoot (NaN raises)
        if not execution.remaining_cycles <= finish_tolerance(
                execution.task.cycles, now, self._time_per_cycle):
            raise RuntimeError(
                f"task {execution.task.task_id} completed with "
                f"{execution.remaining_cycles} cycles remaining"
            )
        execution.remaining_cycles = 0.0
        execution.finished_at = now
        self.current = None
        return execution

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"running {self.current.task.task_id}" if self.current else "idle"
        return f"SimCore({self.index}, {self.rate:g} GHz, {state})"
