"""The tracer protocol, its one implementation, and the JSONL reader/writer.

The tracer contract (:class:`Tracer`) is one method, so instrumented
hot paths pay nothing when tracing is off: every instrumented component
takes ``tracer=None`` and guards each emission with ``if tracer is not
None`` — one attribute test, no call, no allocation on the default path.

:class:`RecordingTracer` keeps every event in memory and validates each
against the :mod:`repro.obs.events` schema registry as it is emitted,
so an instrumentation bug surfaces where it happens, not in a
downstream parser. :func:`write_trace` and :func:`read_trace` move a
decision log to and from a JSONL file (``repro trace --out``,
``repro explain --trace``).

Tracers never read the host clock: an event's ``seq`` is its index in
the trace, and time stamps — where they exist — are *simulated* seconds
supplied by the caller. That keeps traced runs exactly as deterministic
as untraced ones.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Protocol, Union

from repro.obs.events import TraceEvent, validate_event


class Tracer(Protocol):
    """What instrumented components require of a tracer."""

    def emit(self, kind: str, data: dict[str, Any], time: Optional[float] = None) -> None:
        """Record one decision event."""
        ...


class RecordingTracer:
    """Validating in-memory tracer: keeps every event, oldest first."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.counts: Counter[str] = Counter()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def emit(self, kind: str, data: dict[str, Any], time: Optional[float] = None) -> None:
        event = TraceEvent(seq=len(self.events), kind=kind, data=data, time=time)
        validate_event(event)
        self.events.append(event)
        self.counts[kind] += 1

    def by_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]


def write_trace(path: Union[str, Path], events: Iterable[TraceEvent]) -> int:
    """Write ``events`` to ``path`` as JSON lines; returns the count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(event.to_json())
            fh.write("\n")
            n += 1
    return n


def read_trace(path: Union[str, Path]) -> list[TraceEvent]:
    """Load a JSONL decision log, validating every event."""
    events: list[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = TraceEvent.from_dict(json.loads(line))
            except (ValueError, KeyError) as exc:
                raise ValueError(f"{path}:{line_no}: malformed trace line: {exc}") from exc
            validate_event(event)
            events.append(event)
    return events
