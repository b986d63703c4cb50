"""Verification subsystem: invariant checking + differential fuzzing.

Two complementary layers:

* :mod:`repro.verify.invariants` — audits any produced artifact
  (batch :class:`~repro.models.cost.CoreSchedule` lists, online
  :class:`~repro.simulator.online_runner.OnlineResult`, a live
  :class:`~repro.core.dynamic.DynamicCostIndex`) against the paper's
  structural guarantees and basic conservation laws.
* :mod:`repro.verify.differential` + :mod:`repro.verify.fuzz` — a
  seeded fuzzer that compares each fast algorithm against its naive
  specification on adversarial random instances and shrinks any
  divergence to a minimal pinned repro (``python -m repro fuzz``).
  :mod:`repro.verify.reference` holds the readable references that
  have no other home, such as Algorithm 3's heap loop.
"""

from repro.verify.differential import ALL_CHECKS, replay, run_case
from repro.verify.fuzz import FuzzFailure, FuzzReport, render_repro, run_fuzz, shrink, summarize
from repro.verify.invariants import (
    InvariantReport,
    InvariantViolation,
    Violation,
    check_batch_schedules,
    check_dynamic_index,
    check_online_result,
)

__all__ = [
    "ALL_CHECKS",
    "FuzzFailure",
    "FuzzReport",
    "InvariantReport",
    "InvariantViolation",
    "Violation",
    "check_batch_schedules",
    "check_dynamic_index",
    "check_online_result",
    "render_repro",
    "replay",
    "run_case",
    "run_fuzz",
    "shrink",
    "summarize",
]
