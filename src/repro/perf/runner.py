"""Run the pinned bench suite and assemble a :class:`BenchReport`.

Thin deterministic driver: resolve scenario names, run each once under
the requested profile (``full`` or ``quick``), and collect the results.
With ``jobs > 1`` the scenarios fan out across worker processes through
:mod:`repro.parallel` — wall times are still measured per scenario
*inside* its worker, and the deterministic halves (ops, checksums,
params) are bit-identical to a serial run, so the regression gate works
unchanged. All policy — thresholds, baselines, exit codes — lives in
:mod:`repro.perf.report`; all workload pinning in
:mod:`repro.perf.scenarios`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from repro.perf.report import BenchReport, ScenarioResult
from repro.perf.scenarios import ALL_SCENARIOS

#: Default best-of repeats per profile. Quick uses *more* repeats than
#: full: its workloads are tiny, so per-run jitter is proportionally
#: larger and best-of-5 is what keeps a 25% gate honest in CI.
DEFAULT_REPEATS = {"full": 3, "quick": 5}


def _bench_worker(payload: Tuple[str, bool, int], seed: int) -> ScenarioResult:
    """Run one scenario in a worker process.

    The derived ``seed`` is unused: bench scenarios pin their own seeds
    (that is what makes their ops/checksums machine-independent), so the
    executor's seed plumbing is inert here by design.
    """
    name, quick, repeats = payload
    return ALL_SCENARIOS[name].fn(quick, repeats)


def run_bench(
    scenarios: Optional[Sequence[str]] = None,
    quick: bool = False,
    repeats: Optional[int] = None,
    jobs: int = 1,
    log: Optional[Callable[[str], None]] = None,
) -> BenchReport:
    """Execute the suite; returns the fresh (uncompared) report.

    Raises ``KeyError`` naming the first unknown scenario. ``log``
    receives one progress line per scenario when provided. ``jobs > 1``
    maps the scenarios over :func:`repro.parallel.run_sharded`.
    """
    profile = "quick" if quick else "full"
    if repeats is None:
        repeats = DEFAULT_REPEATS[profile]
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    names = list(scenarios) if scenarios else list(ALL_SCENARIOS)
    for name in names:
        if name not in ALL_SCENARIOS:
            available = ", ".join(sorted(ALL_SCENARIOS))
            raise KeyError(f"unknown scenario {name!r} (available: {available})")

    results: dict[str, ScenarioResult] = {}
    if jobs > 1 and len(names) > 1:
        from repro.parallel import run_sharded

        sharded = run_sharded(
            _bench_worker,
            [(name, quick, repeats) for name in names],
            jobs=jobs,
            log=log,
        )
        for name, result in zip(names, sharded):
            results[name] = result
            if log is not None:
                log(f"bench [{profile}] {name}: {_times(result)}")
    else:
        for name in names:
            scenario = ALL_SCENARIOS[name]
            if log is not None:
                log(f"bench [{profile}] {name}: {scenario.description} ...")
            result = scenario.fn(quick, repeats)
            results[name] = result
            if log is not None:
                log(f"bench [{profile}] {name}: {_times(result)}")
    return BenchReport(profile=profile, repeats=repeats, scenarios=results)


def _times(result: ScenarioResult) -> str:
    return "  ".join(
        f"{k}={v * 1e3:.1f}ms (scaled {result.scaled_time_s[k] * 1e3:.1f}ms)"
        for k, v in sorted(result.wall_time_s.items())
    )
