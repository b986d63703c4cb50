"""Result analysis: metrics, paper-style reports, model verification.

* :mod:`repro.analysis.metrics` — cost normalisation and comparison
  (the "Normalized Cost" axes of Figures 1-3).
* :mod:`repro.analysis.reporting` — plain-text tables mirroring the
  paper's tables and figures (what the benchmark harness prints).
* :mod:`repro.analysis.verification` — the Figure 1 experiment:
  analytical model vs simulated "real machine" with contention.
* :mod:`repro.analysis.powerprofile` — the wall-meter reading of a
  batch run, derived from its task records.
"""

from repro.analysis.metrics import NormalizedCost, normalize_costs, percent_change
from repro.analysis.reporting import format_table, render_cost_comparison
from repro.analysis.verification import VerificationReport, verify_model
from repro.analysis.gantt import render_plan_gantt, render_run_gantt
from repro.analysis.stats import Summary, bootstrap_ci
from repro.analysis.powerprofile import (
    batch_power_profile,
    power_trace,
    render_power_profile,
)
from repro.analysis.export import (
    batch_result_dict,
    comparison_dict,
    online_result_dict,
    read_json,
    verification_dict,
    write_json,
)

__all__ = [
    "NormalizedCost",
    "normalize_costs",
    "percent_change",
    "format_table",
    "render_cost_comparison",
    "VerificationReport",
    "verify_model",
    "render_plan_gantt",
    "render_run_gantt",
    "Summary",
    "bootstrap_ci",
    "batch_result_dict",
    "comparison_dict",
    "online_result_dict",
    "read_json",
    "verification_dict",
    "write_json",
    "batch_power_profile",
    "power_trace",
    "render_power_profile",
]
