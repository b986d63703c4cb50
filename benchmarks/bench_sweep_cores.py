"""Sweep — how the Figure 2/3 margins scale with core count.

The paper evaluates a quad-core; data centers and phones have other
shapes. This sweep re-runs the batch comparison at 1-16 cores and the
(scaled) online comparison at 2-8 cores, reporting WBG's and LMC's
total-cost margins per configuration.

Both halves are cells of the registered ``core_count`` sweep
(``repro sweep core_count``).
"""

import pytest

from harness import emit
from repro.analysis.reporting import format_table
from repro.perf.sweep import CORE_COUNTS_BATCH, CORE_COUNTS_ONLINE, run_sweep


def _rows(run, mode):
    return [row for row in run.rows if row["mode"] == mode]


def test_batch_margin_vs_core_count(benchmark):
    run = benchmark.pedantic(
        lambda: run_sweep("core_count"), rounds=1, iterations=1
    )
    batch = _rows(run, "batch")
    assert [row["n_cores"] for row in batch] == list(CORE_COUNTS_BATCH)
    rows = [
        (f"n_cores={row['n_cores']}",
         f"{row['vs_olb_total_pct']:+.1f}%",
         f"{row['vs_ps_total_pct']:+.1f}%")
        for row in batch
    ]
    emit(format_table(
        ["Configuration", "WBG vs OLB", "WBG vs PS"], rows,
        title="Batch total-cost margin vs core count (24 SPEC tasks)",
    ))
    # WBG never loses at any width (it is optimal for the objective)
    for row in batch:
        assert row["vs_olb_total_pct"] <= 1e-9, f"WBG lost at {row['n_cores']} cores"
    # with more cores, queues shorten: positions (and rates) drop, and the
    # energy advantage persists — the margin stays meaningfully negative
    margins = {row["n_cores"]: row["vs_olb_total_pct"] for row in batch}
    assert margins[4] < -15.0  # the paper's configuration
    assert margins[16] < -15.0


def test_online_margin_vs_core_count(benchmark):
    run = benchmark.pedantic(
        lambda: run_sweep("core_count"), rounds=1, iterations=1
    )
    online = _rows(run, "online")
    assert [row["n_cores"] for row in online] == list(CORE_COUNTS_ONLINE)
    rows = [
        (f"n_cores={row['n_cores']}", f"{row['vs_olb_total_pct']:+.1f}%")
        for row in online
    ]
    emit(format_table(
        ["Configuration", "LMC vs OLB"], rows,
        title="Online total-cost margin vs core count (load scaled with cores)",
    ))
    for row in online:
        assert row["vs_olb_total_pct"] < 0, f"LMC lost at {row['n_cores']} cores"
