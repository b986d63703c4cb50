"""Seeded differential fuzzer driver: generate → compare → shrink → report.

``python -m repro fuzz --seed 0 --cases 200`` runs every registered
differential check (see :mod:`repro.verify.differential`) on
deterministically seeded random instances. Each case's RNG is seeded as
``f"{seed}:{check}:{i}"`` so any single case can be regenerated in
isolation, independent of how many cases ran before it.

When a check diverges, the failing case is greedily shrunk — repeatedly
trying the structurally smaller variants the check proposes and keeping
any that still fail — and the minimal repro is printed as a
ready-to-paste pytest function that calls
:func:`repro.verify.differential.replay`.

One loop computes each case index's failures in (case index, check
order), so the wall-clock ``budget`` and ``max_failures`` stop the run
early. Every case is a pure function of its ``seed_key``, so the
reported counterexample is always the lowest-index one, and its shrunk
repro is the same on every run.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.verify.differential import ALL_CHECKS, run_case

#: Give up shrinking after this many candidate evaluations per failure.
_SHRINK_BUDGET = 400


@dataclass
class FuzzFailure:
    """One divergence: the check, the case that triggers it, and why."""

    check: str
    seed_key: str
    case: dict
    failures: list[str]
    shrunk_case: Optional[dict] = None
    shrunk_failures: list[str] = field(default_factory=list)

    @property
    def minimal_case(self) -> dict:
        return self.shrunk_case if self.shrunk_case is not None else self.case

    @property
    def minimal_failures(self) -> list[str]:
        return self.shrunk_failures if self.shrunk_case is not None else self.failures


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzz run."""

    seed: int
    cases_run: int = 0
    elapsed: float = 0.0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _case_size(case: dict) -> int:
    """Crude structural size — shrinking minimises this."""
    return len(json.dumps(case, sort_keys=True))


def shrink(check_name: str, case: dict, budget: int = _SHRINK_BUDGET) -> tuple[dict, list[str]]:
    """Greedy shrink: keep any smaller variant that still fails.

    Restarts the candidate stream after every accepted shrink (the
    check's ``shrink_candidates`` proposes cuts relative to the current
    case), and stops at a fixed evaluation budget so a slow check cannot
    stall the whole run.
    """
    check = ALL_CHECKS[check_name]
    current = case
    current_failures = run_case(check_name, case)
    evals = 0
    improved = True
    while improved and evals < budget:
        improved = False
        for candidate in check.shrink_candidates(current):
            if evals >= budget:
                break
            if _case_size(candidate) >= _case_size(current):
                continue
            evals += 1
            failures = run_case(check_name, candidate)
            if failures:
                current, current_failures = candidate, failures
                improved = True
                break
    return current, current_failures


def render_repro(failure: FuzzFailure) -> str:
    """A ready-to-paste pytest regression test for a shrunk failure."""
    case_json = json.dumps(failure.minimal_case, indent=4, sort_keys=True)
    why = "\n".join(f"    #   {line}" for line in failure.minimal_failures[:5])
    slug = failure.seed_key.replace(":", "_").replace("-", "_")
    return (
        f"def test_fuzz_regression_{failure.check}_{slug}():\n"
        f"    # found by: python -m repro fuzz (case {failure.seed_key})\n"
        f"    # diverged with:\n{why}\n"
        f"    from repro.verify.differential import replay\n"
        f"    replay({failure.check!r}, {case_json})\n"
    )


def _case_hits(seed: int, names: Sequence[str], i: int) -> list:
    """Run every check against case index ``i``.

    Returns ``(check_name, seed_key, case, failures)`` tuples in check
    order. Each case's RNG is keyed by its ``seed_key`` string alone.
    """
    out = []
    for name in names:
        seed_key = f"{seed}:{name}:{i}"
        case = ALL_CHECKS[name].generate(random.Random(seed_key))
        failures = run_case(name, case)
        if failures:
            out.append((name, seed_key, case, failures))
    return out


def _shrunk_failure(
    name: str, seed_key: str, case: dict, failures: list[str],
    log: Callable[[str], None],
) -> FuzzFailure:
    """Record one divergence, shrunk when a smaller case still fails."""
    log(f"FAIL {seed_key}: {failures[0]}")
    fail = FuzzFailure(check=name, seed_key=seed_key, case=case, failures=failures)
    log(f"  shrinking (budget {_SHRINK_BUDGET} evals)...")
    shrunk, shrunk_failures = shrink(name, case)
    if _case_size(shrunk) < _case_size(case):
        fail.shrunk_case, fail.shrunk_failures = shrunk, shrunk_failures
    return fail


def run_fuzz(
    seed: int = 0,
    cases: int = 200,
    checks: Optional[Sequence[str]] = None,
    budget: Optional[float] = None,
    max_failures: int = 5,
    log: Callable[[str], None] = lambda s: None,
) -> FuzzReport:
    """Run the differential fuzzer.

    Each case is a pure function of its seed key ``f"{seed}:{check}:{i}"``,
    so two runs with the same arguments report the same failures and
    shrunk repros (only ``elapsed`` differs).

    Parameters
    ----------
    seed:
        Master seed; the whole run is a pure function of it.
    cases:
        Cases **per check**; case index ``i`` runs every check before
        ``i + 1`` starts, so a time budget still touches all of them.
    checks:
        Subset of check names (default: all).
    budget:
        Optional wall-clock limit in seconds, checked before each case
        index; the run stops cleanly when exceeded.
    max_failures:
        Stop after this many distinct failures (shrinking each is the
        expensive part).
    log:
        Progress sink (the CLI passes ``print``).

    Raises ``ValueError`` naming the argument for an unknown check,
    ``cases < 0``, ``max_failures < 1``, or a budget that is not
    positive and finite.
    """
    names = tuple(checks) if checks else tuple(sorted(ALL_CHECKS))
    for name in names:
        if name not in ALL_CHECKS:
            raise ValueError(f"unknown check {name!r}; have {sorted(ALL_CHECKS)}")
    if cases < 0:
        raise ValueError(f"cases must be >= 0, got {cases}")
    if max_failures < 1:
        raise ValueError(f"max_failures must be >= 1, got {max_failures}")
    if budget is not None and not 0 < budget < math.inf:
        raise ValueError(f"budget must be a positive finite number of seconds, got {budget}")
    report = FuzzReport(seed=seed)
    start = time.monotonic()
    for i in range(cases):
        if budget is not None and time.monotonic() - start > budget:
            log(f"time budget {budget:g}s reached after {report.cases_run} cases")
            break
        hits = _case_hits(seed, names, i)
        report.cases_run += len(names)
        for hit in hits[:max_failures - len(report.failures)]:
            report.failures.append(_shrunk_failure(*hit, log))
        if len(report.failures) >= max_failures:
            log(f"stopping at {max_failures} failures")
            break
    report.elapsed = time.monotonic() - start
    return report


def summarize(report: FuzzReport, log: Callable[[str], None]) -> None:
    """Human-readable summary, including repros for every failure."""
    log(
        f"fuzz: seed={report.seed} cases={report.cases_run} "
        f"elapsed={report.elapsed:.1f}s failures={len(report.failures)}"
    )
    for fail in report.failures:
        log("")
        log(f"=== {fail.check} ({fail.seed_key}) ===")
        for line in fail.minimal_failures:
            log(f"  {line}")
        log("minimal repro (paste into tests/):")
        log(render_repro(fail))
