"""The structured decision-event vocabulary of the tracing layer.

Every trace event carries a ``kind`` drawn from the pinned registry
below, a monotonically increasing ``seq`` assigned by the tracer, an
optional simulated-time stamp (online events only — library code never
reads the host clock), and a flat ``data`` mapping whose keys must
match the kind's :class:`EventSpec`. The registry is the schema
contract ``repro explain`` and downstream consumers parse against;
``tests/test_obs_tracer.py`` pins it, so widening a spec is an
additive change and narrowing one is a reviewed break.

Event kinds map one-to-one onto the paper's decision points:

========================  =======================================================
kind                      decision it records
========================  =======================================================
``ranges.build``          Algorithm 1 — the dominating position ranges a
                          scheduler component will read rates/costs from
``wbg.schedule``          Algorithm 3 span summary (one per batch)
``wbg.slot_pick``         Algorithm 3 — one heap pop: the globally cheapest
                          ``C*_j(k)`` slot, with every core's candidate cost
``lmc.interactive``       Equation 27 — per-core marginal costs for an
                          interactive arrival and the argmin core
``lmc.noninteractive``    Equation 32 increase — per-core marginal queue
                          costs for a non-interactive arrival
``dynamic.insert``        Algorithm 5 — a real queue insertion (position, rate)
``dynamic.delete``        Algorithm 6 — a real queue removal
``dynamic.probe``         a closed-form marginal-cost probe outcome (no mutation)
``sim.dispatch``          the event-driven runner starting a task on a core
``sim.complete``          a task completion (energy, turnaround)
``sim.preempt``           an interactive arrival preempting a running task
``sim.rate``              a per-core frequency change (DVFS action)
``span.begin``/``.end``   logical span brackets (no wall-clock durations)
========================  =======================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional

#: Bumped when an existing event kind's required fields change meaning.
TRACE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class EventSpec:
    """The schema contract for one event kind."""

    kind: str
    required: frozenset[str]
    optional: frozenset[str] = frozenset()
    summary: str = ""

    @property
    def allowed(self) -> frozenset[str]:
        return self.required | self.optional


def _spec(kind: str, required: Iterable[str], optional: Iterable[str] = (),
          summary: str = "") -> EventSpec:
    return EventSpec(kind, frozenset(required), frozenset(optional), summary)


#: The pinned event-kind registry (kind → spec).
EVENT_SPECS: dict[str, EventSpec] = {
    s.kind: s
    for s in (
        _spec("ranges.build", ("re", "rt", "rates", "ranges"), ("core",),
              "Algorithm 1 dominating ranges available to a component"),
        _spec("wbg.schedule", ("n_tasks", "n_cores", "kernel"), (),
              "Algorithm 3 batch summary"),
        _spec("wbg.slot_pick",
              ("task_id", "task", "cycles", "core", "slot", "rate",
               "positional_cost", "candidates"), ("heap_digest",),
              "one Algorithm 3 heap pop"),
        _spec("lmc.interactive",
              ("cycles", "costs", "chosen", "delayed"), ("task_id", "task"),
              "Equation 27 core choice"),
        _spec("lmc.noninteractive",
              ("cycles", "costs", "chosen"), ("task_id", "task", "head_delays"),
              "marginal queue-cost core choice"),
        _spec("dynamic.insert",
              ("cycles", "position", "rate", "total_cost"), ("queue", "task_id", "task"),
              "Algorithm 5 insertion"),
        _spec("dynamic.delete",
              ("cycles", "position", "total_cost"), ("queue", "task_id", "task"),
              "Algorithm 6 removal"),
        _spec("dynamic.probe",
              ("cycles", "marginal"), ("queue",),
              "marginal-cost probe outcome"),
        _spec("sim.dispatch", ("time", "core", "task_id", "task", "task_kind", "rate"), (),
              "task starts executing"),
        _spec("sim.complete",
              ("time", "core", "task_id", "task", "energy_joules", "turnaround"), (),
              "task completes"),
        _spec("sim.preempt", ("time", "core", "task_id", "task"), (),
              "running task preempted by interactive arrival"),
        _spec("sim.rate", ("time", "core", "rate", "prev_rate"), (),
              "per-core frequency change"),
        _spec("span.begin", ("name",),
              ("n_tasks", "n_cores", "kernel", "scenario", "n_events"),
              "logical span opened"),
        _spec("span.end", ("name",),
              ("n_tasks", "n_cores", "kernel", "scenario", "n_events"),
              "logical span closed"),
    )
}


class EventSchemaError(ValueError):
    """An event does not conform to its kind's :class:`EventSpec`."""


@dataclass(frozen=True)
class TraceEvent:
    """One recorded scheduler decision.

    ``seq`` orders events within a trace (assigned by the tracer);
    ``time`` is simulated seconds where the decision happened inside an
    event-driven run, ``None`` for purely algorithmic decisions.
    """

    seq: int
    kind: str
    data: Mapping[str, Any] = field(default_factory=dict)
    time: Optional[float] = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"seq": self.seq, "kind": self.kind, "data": dict(self.data)}
        if self.time is not None:
            out["time"] = self.time
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "TraceEvent":
        return cls(seq=int(raw["seq"]), kind=str(raw["kind"]),
                   data=dict(raw.get("data", {})), time=raw.get("time"))


def validate_event(event: TraceEvent) -> None:
    """Raise :class:`EventSchemaError` unless ``event`` matches its spec."""
    spec = EVENT_SPECS.get(event.kind)
    if spec is None:
        raise EventSchemaError(f"unknown event kind {event.kind!r}")
    keys = set(event.data)
    missing = spec.required - keys
    if missing:
        raise EventSchemaError(
            f"{event.kind} event missing required field(s): {', '.join(sorted(missing))}"
        )
    unknown = keys - spec.allowed
    if unknown:
        raise EventSchemaError(
            f"{event.kind} event carries undeclared field(s): {', '.join(sorted(unknown))}"
        )


def ranges_event_data(ranges: Any, core: Optional[int] = None) -> dict[str, Any]:
    """The ``ranges.build`` payload for a
    :class:`~repro.core.dominating.DominatingRanges` instance."""
    model = ranges.model
    data: dict[str, Any] = {
        "re": model.re,
        "rt": model.rt,
        "rates": list(ranges.effective_rates),
        "ranges": [[r.rate, r.lo, r.hi] for r in ranges],
    }
    if core is not None:
        data["core"] = core
    return data
