"""Workloads: the paper's Table I batch, synthetic batches, online traces.

* :mod:`repro.workloads.spec` — the 24 SPEC2006int workloads of
  Table I, converted to cycle counts exactly as the paper does
  (average runtime at the lowest frequency × that frequency).
* :mod:`repro.workloads.synthetic` — seeded random batch generators
  (heavy-tailed, bimodal) for tests and ablations.
* :mod:`repro.workloads.trace` — the Judgegirl-style online-judge trace
  generator (interactive score queries + non-interactive judging jobs)
  standing in for the proprietary trace of Section V-B.
"""

from repro.workloads.spec import SPEC_TABLE_I, SpecWorkload, spec_tasks, spec_cycles
from repro.workloads.synthetic import lognormal_batch, bimodal_batch
from repro.workloads.trace import (
    JudgeTraceConfig,
    generate_judge_trace,
    generate_open_loop_trace,
    trace_summary,
)
from repro.workloads.estimation import CycleEstimator, MeanEstimator, NoisyOracle
from repro.workloads.traceio import (
    load_trace_csv,
    load_trace_jsonl,
    save_trace_csv,
    save_trace_jsonl,
)

__all__ = [
    "SPEC_TABLE_I",
    "SpecWorkload",
    "spec_tasks",
    "spec_cycles",
    "lognormal_batch",
    "bimodal_batch",
    "JudgeTraceConfig",
    "generate_judge_trace",
    "generate_open_loop_trace",
    "trace_summary",
    "CycleEstimator",
    "MeanEstimator",
    "NoisyOracle",
    "load_trace_csv",
    "load_trace_jsonl",
    "save_trace_csv",
    "save_trace_jsonl",
]
