"""Simulated cores with per-core DVFS.

A :class:`SimCore` executes one :class:`TaskExecution` at a time at its
current frequency. Progress is integrated piecewise: every state change
(rate switch, preemption, co-run count change, completion) first calls
:meth:`SimCore.advance`, which converts the elapsed wall time since the
last update into completed cycles (through the optional
:class:`~repro.simulator.contention.ContentionModel`), charges the
running task its energy and, when the core was given a
:class:`~repro.simulator.power.PowerMeter`, books the consumed energy
with it. The batch runner hands each core a meter; the online runner
hands none (``meter is None``), because an online run prices the task
records, never the meters. Advancing an idle core without a meter only
moves its last-update stamp, which every state change refreshes itself,
so callers may leave idle meterless cores alone.

The effective seconds per cycle and the busy watts depend only on the
(rate, co-runner count) state, so the core caches both and recomputes
them when that state changes; :meth:`SimCore.advance` then integrates
with two cached floats and no table lookup.

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
from repro.simulator.power import PowerMeter


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
    return CYCLE_EPS * max(1.0, cycles) + CLOCK_ULPS * math.ulp(now) / time_per_cycle


@dataclass
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
        # Relative to the task's size: progress is integrated piecewise
        # (one subtraction per rate switch / governor sample), so the
        # residual at the scheduled completion instant scales with the
        # cycle count, not with any fixed epsilon.
        return self.remaining_cycles <= CYCLE_EPS * max(1.0, self.task.cycles)

    @property
    def total_cycles(self) -> float:
        return self.task.cycles


class SimCore:
    """One core: current rate, current execution, progress integration.

    ``meter``, when given, books every interval the core integrates,
    busy or idle; without one the core charges only its tasks.
    """

    def __init__(
        self,
        index: int,
        table: RateTable,
        contention: ContentionModel = NO_CONTENTION,
        meter: Optional[PowerMeter] = None,
    ) -> None:
        self.index = index
        self.table = table
        self.contention = contention
        self.meter = meter
        self.current: Optional[TaskExecution] = None
        self._last_update = 0.0
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
        """Enter (rate, co-runners) and recompute the cached constants for it."""
        i = self.table.index_of(rate)  # validates the rate
        nominal = self.table.time_per_cycle[i]
        if self.contention.is_ideal:
            self._time_per_cycle = nominal
        else:
            self._time_per_cycle = self.contention.effective_time_per_cycle(
                nominal, self.table.time_per_cycle[0], co_runners
            )
        self._busy_watts = self.table.energy_per_cycle[i] / nominal
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

    def next_completion_time(self, now: float) -> float:
        """Absolute time the current task finishes if nothing else changes.

        Accounts for any switch-overhead window the core has already
        fast-forwarded past (``last_update`` may exceed ``now``).
        """
        if self.current is None:
            return math.inf
        return max(now, self._last_update) + self.completion_in()

    # -- progress integration --------------------------------------------------------
    def advance(self, now: float) -> None:
        """Integrate progress and energy from the last update to ``now``.

        ``now`` earlier than the last update is a no-op: it happens
        legitimately when an unrelated event lands inside a
        switch-overhead window that :meth:`start` fast-forwarded over.
        """
        last = self._last_update
        dt = now - last
        if not dt > 0.0:
            return
        current = self.current
        meter = self.meter
        # dt > 0 rules out NaN and backwards intervals, and the rate
        # table keeps the watts finite and positive, so the meter's
        # unchecked booking applies
        if current is None:
            if meter is not None:
                meter.book_idle(last, now)
        else:
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
            watts = self._busy_watts
            current.energy_joules += watts * dt
            if meter is not None:
                meter.book_busy(last, now, watts)
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
        if execution.done:
            raise ValueError("cannot start a finished execution")
        self.rate = rate
        self.current = execution
        if execution.started_at is None:
            execution.started_at = now
        if self.contention.switch_overhead_s > 0:
            # model the dispatch/DVFS latency as lost wall time at busy power
            overhead_end = now + self.contention.switch_overhead_s
            watts = self._busy_watts
            if self.meter is not None:
                self.meter.record_busy(now, overhead_end, watts)
            execution.energy_joules += watts * self.contention.switch_overhead_s
            execution.busy_seconds += self.contention.switch_overhead_s
            self._last_update = overhead_end

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
