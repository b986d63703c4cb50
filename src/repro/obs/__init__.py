"""Scheduler observability: decision tracing, metrics, ``repro explain``.

The ``repro.obs`` package makes the schedulers' decisions inspectable
without changing them:

* :mod:`repro.obs.events` — the versioned trace-event schema: every
  structured decision the instrumented code can emit (Algorithm 1 range
  construction, Algorithm 3 slot picks, Equation 27/32 marginal-cost
  comparisons, dynamic-index mutations, simulator lifecycle events).
* :mod:`repro.obs.tracer` — the emit-only :class:`Tracer` protocol,
  its one implementation :class:`RecordingTracer` (in memory, validating
  every event), and the JSONL :func:`write_trace` / :func:`read_trace`.
* :mod:`repro.obs.metrics` — counters / gauges / histograms and a
  :class:`MetricsRegistry`; :func:`scheduler_metrics` unifies the
  pre-existing ad-hoc stats (LMC probe counters, dynamic-index
  counters, tracer event counts) under one namespace.
* :mod:`repro.obs.explain` — reconstructs *why* a task got its core,
  queue position, and rate from a recorded trace, citing the paper's
  equations (the engine behind ``repro explain``).
* :mod:`repro.obs.run` — seeded reference scenarios behind
  ``repro trace``.

Instrumented call sites all follow the same contract: they accept
``tracer=None`` and guard every emission with ``if tracer is not
None``, so the untraced path costs one pointer test and traced runs
produce bit-identical schedules, plans, and costs.
"""

from repro.obs.events import (
    EVENT_SPECS,
    TRACE_SCHEMA_VERSION,
    EventSchemaError,
    EventSpec,
    TraceEvent,
    validate_event,
)
from repro.obs.explain import ExplainError, Explanation, explain_task, task_events
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    scheduler_metrics,
)
from repro.obs.run import TRACE_SCENARIOS, run_traced_scenario
from repro.obs.tracer import (
    RecordingTracer,
    Tracer,
    read_trace,
    write_trace,
)

__all__ = [
    "EVENT_SPECS",
    "TRACE_SCHEMA_VERSION",
    "EventSchemaError",
    "EventSpec",
    "TraceEvent",
    "validate_event",
    "ExplainError",
    "Explanation",
    "explain_task",
    "task_events",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "scheduler_metrics",
    "TRACE_SCENARIOS",
    "run_traced_scenario",
    "RecordingTracer",
    "Tracer",
    "read_trace",
    "write_trace",
]
