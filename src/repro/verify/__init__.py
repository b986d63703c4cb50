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

import importlib

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

#: The fuzzing half loads on first use, so importing only the audits
#: (paperbench's correctness gate does) neither imports nor compiles it.
_FUZZING = {
    "ALL_CHECKS": "repro.verify.differential",
    "replay": "repro.verify.differential",
    "run_case": "repro.verify.differential",
    "FuzzFailure": "repro.verify.fuzz",
    "FuzzReport": "repro.verify.fuzz",
    "render_repro": "repro.verify.fuzz",
    "run_fuzz": "repro.verify.fuzz",
    "shrink": "repro.verify.fuzz",
    "summarize": "repro.verify.fuzz",
}


def __getattr__(name: str):
    module = _FUZZING.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
