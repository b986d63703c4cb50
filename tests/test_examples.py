"""Smoke tests: every shipped example runs clean end to end.

The examples are part of the public API surface; each is executed as a
subprocess (the fastest configuration available) and must exit 0
without writing to stderr beyond warnings.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = Path(__file__).resolve().parent.parent / "src"


def example_env() -> dict[str, str]:
    """The parent's environment with ``PYTHONPATH`` pointing at ``src``
    (so settings such as ``PYTHONDONTWRITEBYTECODE`` carry over)."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_example(name: str, *args: str, timeout: float = 240.0):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=example_env(),
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stdout}\n{proc.stderr}"
    return proc.stdout


def test_example_env_keeps_the_parent_environment(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    env = example_env()
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert env["PYTHONPATH"] == str(SRC)
    assert env["PATH"] == os.environ["PATH"]


def test_quickstart():
    out = run_example("quickstart.py")
    assert "Workload Based Greedy" in out
    assert "model check" in out


def test_datacenter_batch():
    out = run_example("datacenter_batch.py")
    assert "Figure 2" in out
    assert "WBG vs OLB" in out
    assert "frequency mix" in out


def test_online_judge_small():
    out = run_example("online_judge.py", "--small")
    assert "Figure 3" in out
    assert "Service-level view" in out
    assert "p99" in out


def test_heterogeneous_mobile():
    out = run_example("heterogeneous_mobile.py")
    assert "big.LITTLE" in out
    assert "simulator check" in out


def test_deadline_energy_budget():
    out = run_example("deadline_energy_budget.py")
    assert "Theorem 1" in out
    assert "YDS" in out
    assert "feasible" in out


def test_dynamic_queue():
    out = run_example("dynamic_queue.py")
    assert "dominating ranges" in out
    assert "matched the from-scratch recomputation" in out


def test_energy_frontier():
    out = run_example("energy_frontier.py")
    assert "Pareto frontier" in out
    assert "Budget (J)" in out


def test_traced_run():
    out = run_example("traced_run.py")
    assert "plan bit-identical" in out
    assert "wbg.slot_pick" in out
    assert "decision reconstruction" in out
    assert "match DominatingRanges exactly" in out


@pytest.mark.slow
def test_profiled_estimation():
    out = run_example("profiled_estimation.py", timeout=400.0)
    assert "oracle" in out
    assert "running mean" in out
