"""Event-driven multi-core platform simulator with per-core DVFS.

This substrate replaces the paper's quad-core i7-950 testbed and
DW-6091 power meter (see DESIGN.md, "Substitutions"):

* :mod:`repro.simulator.platform` — cores with per-core frequency
  state; piecewise-constant execution with exact cycle/energy
  integration across rate changes and preemption.
* :mod:`repro.simulator.power` — the power-meter substitute: integrates
  per-core power over simulated time, tracks the idle floor separately
  (the paper subtracts an idle baseline from its wall readings).
* :mod:`repro.simulator.contention` — the "real machine" effects the
  paper blames for its ~8 % Sim-vs-Exp gap: co-run resource contention
  and the non-frequency-proportional (memory-bound) fraction of each
  task.
* :mod:`repro.simulator.batch_runner` — executes batch scheduling
  plans (with or without contention) and reports measured costs.
* :mod:`repro.simulator.online_runner` — executes online traces under
  a pluggable scheduling policy with preemption, per-core queues, and
  governor-driven frequency changes; its event loop merges the sorted
  arrivals with a heap of completions and governor ticks.
"""

from repro.simulator.platform import SimCore, TaskExecution
from repro.simulator.power import PowerMeter
from repro.simulator.contention import ContentionModel, NO_CONTENTION
from repro.simulator.batch_runner import BatchResult, TaskRecord, run_batch
from repro.simulator.online_runner import OnlineResult, OnlineTaskRecord, run_online

__all__ = [
    "SimCore",
    "TaskExecution",
    "PowerMeter",
    "ContentionModel",
    "NO_CONTENTION",
    "BatchResult",
    "TaskRecord",
    "run_batch",
    "OnlineResult",
    "OnlineTaskRecord",
    "run_online",
]
