"""Tests for the ``repro bench`` harness (src/repro/perf/).

Covers the report schema round-trip, the regression gate's decision
rules (checksum/ops mismatches are fatal, wall-time regressions gate by
threshold, new scenarios are informational), scenario determinism, and
the CLI subcommand's stable exit codes.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.perf import (
    ALL_SCENARIOS,
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_REGRESSION,
    SCHEMA_VERSION,
    BenchReport,
    ScenarioResult,
    compare_reports,
    load_report_file,
    run_bench,
    save_report_file,
)


def _result(name: str = "s1", *, time: float = 1.0, ops: dict | None = None,
            checksum: str = "abc", params: dict | None = None) -> ScenarioResult:
    return ScenarioResult(
        name=name,
        params=params if params is not None else {"n": 10},
        wall_time_s={"run": time},
        ops=ops if ops is not None else {"events": 5},
        checksum=checksum,
        scaled_time_s={"run": time},
    )


def _report(*results: ScenarioResult, profile: str = "full") -> BenchReport:
    return BenchReport(profile=profile, repeats=3,
                       scenarios={r.name: r for r in results})


# ---------------------------------------------------------------------------
# gate decision rules
# ---------------------------------------------------------------------------


def test_compare_clean_when_identical() -> None:
    cur, base = _report(_result()), _report(_result())
    comparison = compare_reports(cur, base)
    assert comparison.ok and comparison.exit_code == EXIT_CLEAN


def test_compare_time_regression_gates_by_threshold() -> None:
    base = _report(_result(time=1.0))
    slow = _report(_result(time=1.2))
    assert compare_reports(slow, base, threshold=0.25).ok
    slower = _report(_result(time=1.3))
    comparison = compare_reports(slower, base, threshold=0.25)
    assert not comparison.ok
    assert comparison.exit_code == EXIT_REGRESSION
    assert comparison.regressions[0].kind == "time"
    # a *speedup* never gates
    assert compare_reports(_report(_result(time=0.2)), base).ok


def test_compare_time_noise_floor_absorbs_tiny_phases() -> None:
    # millisecond phases jitter far past any ratio threshold on shared
    # hardware; below the absolute floor they must not gate
    from repro.perf import TIME_NOISE_FLOOR_S

    base = _report(_result(time=0.002))
    jittery = _report(_result(time=0.003))  # +50% but only +1 ms
    assert compare_reports(jittery, base, threshold=0.25).ok
    # the floor is absolute, not another ratio: once the delta clears
    # it, the same ratio fails
    slow = _report(_result(time=0.002 + TIME_NOISE_FLOOR_S * 2))
    assert not compare_reports(slow, base, threshold=0.25).ok


def test_compare_checksum_mismatch_is_fatal() -> None:
    comparison = compare_reports(
        _report(_result(checksum="new")), _report(_result(checksum="old"))
    )
    assert [f.kind for f in comparison.regressions] == ["checksum"]


def test_compare_ops_mismatch_is_fatal_and_named() -> None:
    comparison = compare_reports(
        _report(_result(ops={"events": 6})), _report(_result(ops={"events": 5}))
    )
    assert not comparison.ok
    finding = comparison.regressions[0]
    assert finding.kind == "ops" and "events" in finding.message


def test_compare_params_change_requires_new_baseline() -> None:
    comparison = compare_reports(
        _report(_result(params={"n": 20})), _report(_result(params={"n": 10}))
    )
    assert [f.kind for f in comparison.regressions] == ["params"]


def test_compare_new_scenario_is_informational() -> None:
    comparison = compare_reports(
        _report(_result("s1"), _result("s2")), _report(_result("s1"))
    )
    assert comparison.ok
    assert [f.kind for f in comparison.findings] == ["missing"]


def test_compare_rejects_negative_threshold() -> None:
    with pytest.raises(ValueError):
        compare_reports(_report(_result()), _report(_result()), threshold=-0.1)


@pytest.mark.parametrize("threshold", [math.nan, math.inf])
def test_compare_rejects_non_finite_threshold(threshold: float) -> None:
    # a 9x scaled slowdown would pass such a gate with no finding
    slow, base = _report(_result(time=9.0)), _report(_result(time=1.0))
    with pytest.raises(ValueError, match="threshold"):
        compare_reports(slow, base, threshold=threshold)


# ---------------------------------------------------------------------------
# persistence: profiles merge, schema validates
# ---------------------------------------------------------------------------


def test_save_load_roundtrip_preserves_other_profiles(tmp_path) -> None:
    path = tmp_path / "BENCH.json"
    save_report_file(path, _report(_result(), profile="full"))
    existing = load_report_file(path)
    save_report_file(path, _report(_result(time=0.5), profile="quick"), existing=existing)
    loaded = load_report_file(path)
    assert set(loaded) == {"full", "quick"}
    assert loaded["full"].scenarios["s1"].wall_time_s["run"] == 1.0
    assert loaded["quick"].scenarios["s1"].wall_time_s["run"] == 0.5
    raw = json.loads(path.read_text())
    assert raw["schema_version"] == SCHEMA_VERSION


def test_load_rejects_bad_schema(tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 999, "profiles": {}}))
    with pytest.raises(ValueError):
        load_report_file(path)
    path.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
    with pytest.raises(ValueError):
        load_report_file(path)


# ---------------------------------------------------------------------------
# the suite itself
# ---------------------------------------------------------------------------


def test_run_bench_scenario_deterministic_ops_and_checksum() -> None:
    first = run_bench(scenarios=["dynamic_churn"], quick=True, repeats=1)
    second = run_bench(scenarios=["dynamic_churn"], quick=True, repeats=1)
    a, b = first.scenarios["dynamic_churn"], second.scenarios["dynamic_churn"]
    assert a.ops == b.ops
    assert a.checksum == b.checksum
    assert a.params == b.params
    assert compare_reports(second, first, threshold=10.0).ok


@pytest.mark.parametrize("name", ["dynamic_churn", "lmc_online_trace"])
def test_quick_scenario_matches_committed_baseline(name: str) -> None:
    """The dynamic cost index's outputs are pinned bit for bit: one quick
    run's ops counters and checksum equal the committed quick profile
    (no timing gate)."""
    committed = load_report_file(Path(__file__).resolve().parents[1] / "BENCH_schedulers.json")
    expected = committed["quick"].scenarios[name]
    got = run_bench(scenarios=[name], quick=True, repeats=1).scenarios[name]
    assert got.params == expected.params
    assert got.ops == expected.ops
    assert got.checksum == expected.checksum


def test_run_bench_unknown_scenario_raises() -> None:
    with pytest.raises(KeyError):
        run_bench(scenarios=["nope"])


def test_scenario_catalog_is_pinned() -> None:
    """The suite the acceptance criteria name must stay present."""
    assert {"wbg_scaling", "lmc_online_trace", "dynamic_churn"} <= set(ALL_SCENARIOS)
    assert len(ALL_SCENARIOS) >= 3


# ---------------------------------------------------------------------------
# CLI subcommand
# ---------------------------------------------------------------------------


def test_cli_bench_writes_report_and_gates(tmp_path, capsys) -> None:
    out = tmp_path / "BENCH_schedulers.json"
    args = ["bench", "--quick", "--repeats", "1",
            "--scenario", "dynamic_churn", "--out", str(out)]
    assert main(args) == EXIT_CLEAN  # no baseline yet → records fresh
    assert out.exists()
    # second run gates against the file just written; generous threshold
    # keeps the timing half inert so this asserts the deterministic half
    assert main(args + ["--threshold", "100"]) == EXIT_CLEAN
    captured = capsys.readouterr().out
    assert "bench gate" in captured


def test_cli_bench_detects_planted_regression(tmp_path) -> None:
    out = tmp_path / "BENCH_schedulers.json"
    args = ["bench", "--quick", "--repeats", "1",
            "--scenario", "dynamic_churn", "--out", str(out)]
    assert main(args) == EXIT_CLEAN
    raw = json.loads(out.read_text())
    scenario = raw["profiles"]["quick"]["scenarios"]["dynamic_churn"]
    scenario["ops"]["probes"] -= 1  # pretend the baseline behaved differently
    out.write_text(json.dumps(raw))
    assert main(args + ["--threshold", "100"]) == EXIT_REGRESSION


def test_cli_bench_failed_gate_leaves_baseline_unchanged(tmp_path, capsys) -> None:
    out = tmp_path / "BENCH_schedulers.json"
    args = ["bench", "--quick", "--repeats", "1",
            "--scenario", "dynamic_churn", "--out", str(out)]
    assert main(args) == EXIT_CLEAN
    raw = json.loads(out.read_text())
    raw["profiles"]["quick"]["scenarios"]["dynamic_churn"]["checksum"] = "0" * 16
    out.write_text(json.dumps(raw))
    doctored = out.read_bytes()
    capsys.readouterr()
    assert main(args + ["--threshold", "100"]) == EXIT_REGRESSION
    assert out.read_bytes() == doctored
    assert f"left {out} unchanged" in capsys.readouterr().out
    # a rerun still fails against the committed numbers, not its own
    assert main(args + ["--threshold", "100"]) == EXIT_REGRESSION
    assert out.read_bytes() == doctored


def test_cli_bench_scenario_keeps_unmeasured_entries(tmp_path) -> None:
    committed = Path(__file__).resolve().parents[1] / "BENCH_schedulers.json"
    out = tmp_path / "BENCH_schedulers.json"
    shutil.copyfile(committed, out)
    before = json.loads(out.read_text())["profiles"]
    assert main(["bench", "--quick", "--repeats", "1", "--no-compare",
                 "--scenario", "dynamic_churn", "--out", str(out)]) == EXIT_CLEAN
    after = json.loads(out.read_text())["profiles"]
    assert set(after) == set(before)
    for profile, report in before.items():
        for name, entry in report["scenarios"].items():
            if (profile, name) == ("quick", "dynamic_churn"):
                continue
            assert json.dumps(after[profile]["scenarios"][name], sort_keys=True) == \
                json.dumps(entry, sort_keys=True), (profile, name)
    assert set(after["quick"]["scenarios"]) == set(before["quick"]["scenarios"])


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_cli_bench_rejects_non_finite_threshold(tmp_path, threshold: str) -> None:
    out = tmp_path / "BENCH.json"
    code = main(["bench", "--quick", "--repeats", "1", "--threshold", threshold,
                 "--scenario", "dynamic_churn", "--out", str(out)])
    assert code == EXIT_ERROR
    assert not out.exists()


def test_cli_bench_unknown_scenario_is_error(tmp_path) -> None:
    out = tmp_path / "BENCH.json"
    assert main(["bench", "--scenario", "nope", "--out", str(out)]) == EXIT_ERROR


def test_cli_bench_corrupt_baseline_is_error(tmp_path, capsys) -> None:
    out = tmp_path / "BENCH.json"
    out.write_text("{not json")
    code = main(["bench", "--quick", "--repeats", "1",
                 "--scenario", "dynamic_churn", "--out", str(out)])
    assert code == EXIT_ERROR


def test_cli_bench_list_scenarios(capsys) -> None:
    assert main(["bench", "--list-scenarios"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for name in ALL_SCENARIOS:
        assert name in out
        assert ALL_SCENARIOS[name].description in out


def test_cli_bench_list_short_alias(capsys) -> None:
    """``--list`` and ``--list-scenarios`` are the same flag."""
    assert main(["bench", "--list"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for name in ALL_SCENARIOS:
        assert name in out
