"""Discrete-event simulation core.

A :class:`Simulation` owns a clock and a priority queue of timestamped
callbacks. Events at equal timestamps fire in schedule order (FIFO), so
runs are fully deterministic. Callbacks may schedule further events and
may cancel previously scheduled ones via the returned handle.

A long, already time-sorted input (the arrivals of an online trace)
need not enter the queue at all: :meth:`Simulation.run_stream` merges
it with the queue, so the heap holds only the events the run itself
schedules.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Iterable, Optional, TypeVar

from repro.models.tolerances import STRICT_ABS_TOL

T = TypeVar("T")


class EventHandle:
    """Cancellation token for a scheduled event."""

    __slots__ = ("time", "seq", "callback", "cancelled", "label")

    def __init__(self, time: float, seq: int, callback: Callable[[], None], label: str) -> None:
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        self.cancelled = True
        self.callback = None  # free references early

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:g}, {self.label!r}, {state})"


class Simulation:
    """Clock + event queue. Time is in seconds, starts at 0.

    The queue holds ``(time, seq, handle)`` tuples, so the heap orders
    events with native tuple comparison; ``seq`` is unique, which makes
    equal times fire in schedule order and never compares two handles.

    ``tracer`` (see :mod:`repro.obs.tracer`) is an opt-in firehose: it
    records one ``sim.event`` per non-cancelled callback fired, stamped
    with simulated time and the event's label. Runners that emit their
    own structured events (``sim.dispatch`` / ``sim.complete`` / …)
    normally leave it ``None`` — the default costs one ``is not None``
    test per event.
    """

    def __init__(self, tracer=None) -> None:
        self.now = 0.0
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._events_fired = 0
        self._tracer = tracer

    # -- scheduling -------------------------------------------------------------
    def at(self, time: float, callback: Callable[[], None], label: str = "") -> EventHandle:
        """Schedule ``callback`` at absolute ``time`` (>= now)."""
        if math.isnan(time):
            raise ValueError("event time is NaN")
        if time < self.now - STRICT_ABS_TOL:
            raise ValueError(f"cannot schedule in the past: t={time} < now={self.now}")
        time = max(time, self.now)
        seq = next(self._seq)
        handle = EventHandle(time, seq, callback, label)
        heapq.heappush(self._queue, (time, seq, handle))
        return handle

    def after(self, delay: float, callback: Callable[[], None], label: str = "") -> EventHandle:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.at(self.now + delay, callback, label)

    # -- execution --------------------------------------------------------------
    def run(self, max_events: int = 50_000_000) -> None:
        """Fire events in time order until the queue drains.

        The clock stops at the last fired event. More than
        ``max_events`` fired events in total raise ``RuntimeError``.
        """
        queue = self._queue
        while queue:
            time, _, head = heapq.heappop(queue)
            if head.cancelled:
                continue
            self.now = time
            self._events_fired += 1
            if self._events_fired > max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events — runaway loop?")
            self._fire(head)

    def run_stream(
        self,
        stream: Iterable[tuple[float, T]],
        callback: Callable[[T], None],
        max_events: int = 50_000_000,
    ) -> None:
        """Fire a time-sorted ``(time, item)`` stream merged with the queue.

        Each stream entry (an arrival) calls ``callback(item)`` at
        ``time``; queued events fire as in :meth:`run`, which drains the
        queue once the stream is exhausted. A stream entry fires before
        any queued event at the same time, as if it had been scheduled
        before all of them. Stream entries count in :attr:`events_fired`
        and show up in the tracer as ``sim.event`` labelled
        ``"arrive"``. A stream time earlier than the clock (out of order,
        or NaN) raises ``ValueError``.
        """
        queue = self._queue
        heappop = heapq.heappop
        for time, item in stream:
            if not time >= self.now:
                raise ValueError(f"stream out of order: t={time} < now={self.now}")
            # queued events strictly before the entry fire first
            while queue and queue[0][0] < time:
                qtime, _, head = heappop(queue)
                if head.cancelled:
                    continue
                self.now = qtime
                self._events_fired += 1
                if self._events_fired > max_events:
                    raise RuntimeError(f"simulation exceeded {max_events} events — runaway loop?")
                self._fire(head)
            self.now = time
            self._events_fired += 1
            if self._events_fired > max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events — runaway loop?")
            if self._tracer is not None:
                self._tracer.emit("sim.event", {"time": time, "label": "arrive"}, time=time)
            callback(item)
        self.run(max_events=max_events)

    def _fire(self, head: EventHandle) -> None:
        if self._tracer is not None:
            self._tracer.emit("sim.event", {"time": head.time, "label": head.label},
                              time=head.time)
        callback = head.callback
        if callback is None:
            raise RuntimeError(
                f"event {head.label!r} (seq {head.seq}) at t={head.time!r} "
                "is not cancelled but has no callback"
            )
        callback()

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled queued events."""
        return sum(1 for _, _, h in self._queue if not h.cancelled)

    @property
    def events_fired(self) -> int:
        return self._events_fired
