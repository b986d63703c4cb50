"""Differential tests: every ``--jobs`` consumer is bit-identical to serial.

The fan-out layer's whole contract is that ``--jobs N`` changes wall
time and nothing else. These tests pin that end to end for each wired
consumer:

* ``repro bench`` — ops counters, checksums, and params match a serial
  run exactly (wall times are the one legitimately different field);
* ``repro fuzz`` — a planted always-failing check yields the *same*
  counterexample (same seed_key, same case, same shrunk minimal repro)
  under ``jobs=2`` as under serial: the lowest case index wins, not the
  fastest worker;
* ``repro sweep`` — the merged grid rows and the row checksum are
  identical.

The planted check relies on the executor's fork start method: workers
inherit the monkeypatched ``ALL_CHECKS`` registry.
"""

from __future__ import annotations

import random

import pytest

from repro.perf import run_bench
from repro.perf.sweep import run_sweep
from repro.verify import ALL_CHECKS, run_fuzz
from repro.verify.differential import DifferentialCheck

#: Cheap bench scenarios for the identity check (full sweep is CI's job).
_BENCH_SCENARIOS = ["dynamic_churn", "wbg_scaling"]


class _PlantedCheck(DifferentialCheck):
    """Fails whenever the generated list contains a value >= 5."""

    name = "_planted"
    list_keys = ("items",)

    def generate(self, rng: random.Random) -> dict:
        return {"items": [rng.randint(0, 9) for _ in range(rng.randint(2, 8))]}

    def run(self, case: dict) -> list[str]:
        bad = [v for v in case["items"] if v >= 5]
        return [f"planted divergence on {bad}"] if bad else []


def test_bench_jobs2_matches_serial_exactly():
    serial = run_bench(scenarios=_BENCH_SCENARIOS, quick=True, repeats=1, jobs=1)
    sharded = run_bench(scenarios=_BENCH_SCENARIOS, quick=True, repeats=1, jobs=2)
    assert set(sharded.scenarios) == set(serial.scenarios)
    for name, a in serial.scenarios.items():
        b = sharded.scenarios[name]
        assert b.ops == a.ops, name
        assert b.checksum == a.checksum, name
        assert b.params == a.params, name
    assert serial.profile == sharded.profile


def test_bench_rejects_bad_jobs():
    with pytest.raises(ValueError):
        run_bench(scenarios=_BENCH_SCENARIOS, quick=True, repeats=1, jobs=0)


def test_fuzz_jobs2_reports_the_same_counterexample(monkeypatch):
    monkeypatch.setitem(ALL_CHECKS, "_planted", _PlantedCheck())
    serial = run_fuzz(seed=5, cases=12, checks=["_planted"], max_failures=2)
    sharded = run_fuzz(seed=5, cases=12, checks=["_planted"], max_failures=2,
                       jobs=2)
    assert not serial.ok and not sharded.ok

    def key(report):
        return [
            (f.check, f.seed_key, f.case, f.failures,
             f.shrunk_case, f.shrunk_failures)
            for f in report.failures
        ]

    # same failures, same order, byte-identical shrunk repros
    assert key(sharded) == key(serial)
    # the winner is the lowest case index under the serial iteration
    assert serial.failures[0].seed_key == "5:_planted:0"


def test_fuzz_jobs2_clean_sweep_counts_all_cases():
    report = run_fuzz(seed=0, cases=4, jobs=2)
    assert report.ok
    assert report.cases_run == 4 * len(ALL_CHECKS)


def test_fuzz_rejects_budget_with_jobs():
    with pytest.raises(ValueError, match="budget"):
        run_fuzz(seed=0, cases=4, jobs=2, budget=1.0)
    with pytest.raises(ValueError):
        run_fuzz(seed=0, cases=4, jobs=0)


def test_sweep_jobs2_merges_bit_identically():
    serial = run_sweep("cost_weights", jobs=1, quick=True)
    sharded = run_sweep("cost_weights", jobs=2, quick=True)
    assert sharded.rows == serial.rows
    assert sharded.checksum == serial.checksum
