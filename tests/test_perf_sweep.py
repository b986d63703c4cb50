"""Tests for the ``repro sweep`` grids (src/repro/perf/sweep.py).

Covers the pinned sweep catalog, row determinism and the order-sensitive
checksum, the bench-schema recording path (``sweep`` profile alongside
``full``/``quick``), and the CLI subcommand's exit codes.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.perf import (
    EXIT_CLEAN,
    EXIT_ERROR,
    SWEEP_PROFILE,
    SWEEPS,
    load_report_file,
    record_sweep,
    run_sweep,
    sweep_checksum,
)
from repro.perf.sweep import (
    CORE_COUNTS_BATCH,
    CORE_COUNTS_ONLINE,
    COST_WEIGHT_RATIOS,
    FIG3_SEEDS,
    sweep_scenario_result,
)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_sweep_catalog_is_pinned():
    """The three refactored benchmark grids must stay registered."""
    assert {"fig3_replication", "cost_weights", "core_count"} <= set(SWEEPS)
    for spec in SWEEPS.values():
        assert spec.description
        assert len(spec.cells(False)) >= 3


def test_grids_match_their_constants():
    assert [c["seed"] for c in SWEEPS["fig3_replication"].cells(False)] == list(FIG3_SEEDS)
    assert [
        (c["re"], c["rt"]) for c in SWEEPS["cost_weights"].cells(False)
    ] == list(COST_WEIGHT_RATIOS)
    cells = SWEEPS["core_count"].cells(False)
    assert [c["n_cores"] for c in cells if c["mode"] == "batch"] == list(CORE_COUNTS_BATCH)
    assert [c["n_cores"] for c in cells if c["mode"] == "online"] == list(CORE_COUNTS_ONLINE)


def test_unknown_sweep_raises_keyerror():
    with pytest.raises(KeyError, match="unknown sweep"):
        run_sweep("nope")


# ---------------------------------------------------------------------------
# determinism and checksums
# ---------------------------------------------------------------------------


def test_run_sweep_is_deterministic():
    a = run_sweep("cost_weights", quick=True)
    b = run_sweep("cost_weights", quick=True)
    assert a.rows == b.rows
    assert a.checksum == b.checksum
    assert [(r["re"], r["rt"]) for r in a.rows] == list(COST_WEIGHT_RATIOS)


def test_sweep_checksum_is_order_sensitive():
    rows = [{"x": 1}, {"x": 2}]
    assert sweep_checksum(rows) != sweep_checksum(list(reversed(rows)))
    assert sweep_checksum(rows) == sweep_checksum([{"x": 1}, {"x": 2}])
    assert len(sweep_checksum(rows)) == 16


# ---------------------------------------------------------------------------
# recording into BENCH_schedulers.json
# ---------------------------------------------------------------------------


def test_record_sweep_roundtrips_and_preserves_profiles(tmp_path):
    run = run_sweep("cost_weights", quick=True)
    path = tmp_path / "BENCH.json"
    result = record_sweep(path, run)
    assert result.name == "sweep_cost_weights"
    loaded = load_report_file(path)
    assert set(loaded) == {SWEEP_PROFILE}
    recorded = loaded[SWEEP_PROFILE].scenarios["sweep_cost_weights"]
    assert recorded.checksum == run.checksum
    assert recorded.ops == {"cells": len(run.rows)}
    assert recorded.params == {"sweep": "cost_weights", "quick": True,
                               "cells": len(run.rows)}
    assert set(recorded.wall_time_s) == {"serial"}
    # recording a second sweep keeps the first
    record_sweep(path, run)
    assert "sweep_cost_weights" in load_report_file(path)[SWEEP_PROFILE].scenarios


def test_sweep_scenario_result_records_one_serial_wall_key():
    run = run_sweep("cost_weights", quick=True)
    result = sweep_scenario_result(run)
    assert result.wall_time_s == {"serial": run.elapsed_s}
    assert set(result.scaled_time_s) == {"serial"}


# ---------------------------------------------------------------------------
# CLI subcommand
# ---------------------------------------------------------------------------


def test_cli_sweep_list_prints_catalog(capsys):
    assert main(["sweep", "--list"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for name in SWEEPS:
        assert name in out
        assert SWEEPS[name].description in out


def test_cli_sweep_without_name_is_error(capsys):
    assert main(["sweep"]) == EXIT_ERROR
    assert "--list" in capsys.readouterr().out


def test_cli_sweep_unknown_name_is_error(capsys):
    assert main(["sweep", "nope"]) == EXIT_ERROR
    assert "unknown sweep" in capsys.readouterr().out


def test_cli_sweep_runs_and_records(tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    code = main(["sweep", "cost_weights", "--quick", "--record",
                 "--out", str(out)])
    assert code == EXIT_CLEAN
    captured = capsys.readouterr().out
    assert "checksum=" in captured
    assert "recorded sweep_cost_weights" in captured
    raw = json.loads(out.read_text())
    assert "sweep_cost_weights" in raw["profiles"][SWEEP_PROFILE]["scenarios"]
