"""Run the pinned bench suite and assemble a :class:`BenchReport`.

Thin deterministic driver: resolve scenario names, run each under the
requested profile (``full`` or ``quick``), and collect the results.
Scenarios pin their own seeds, which is what makes their ops and
checksums machine-independent. All policy — thresholds, baselines,
exit codes — lives in :mod:`repro.perf.report`; all workload pinning
in :mod:`repro.perf.scenarios`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.perf.report import BenchReport
from repro.perf.scenarios import ALL_SCENARIOS

#: Default best-of repeats per profile. Quick uses *more* repeats than
#: full: its workloads are tiny, so per-run jitter is proportionally
#: larger and best-of-5 is what keeps a 25% gate honest in CI.
DEFAULT_REPEATS = {"full": 3, "quick": 5}


def run_bench(
    scenarios: Optional[Sequence[str]] = None,
    quick: bool = False,
    repeats: Optional[int] = None,
) -> BenchReport:
    """Execute the suite; returns the fresh (uncompared) report.

    Raises ``KeyError`` naming the first unknown scenario.
    """
    profile = "quick" if quick else "full"
    if repeats is None:
        repeats = DEFAULT_REPEATS[profile]
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    names = list(scenarios) if scenarios else list(ALL_SCENARIOS)
    for name in names:
        if name not in ALL_SCENARIOS:
            available = ", ".join(sorted(ALL_SCENARIOS))
            raise KeyError(f"unknown scenario {name!r} (available: {available})")

    results = {name: ALL_SCENARIOS[name].fn(quick, repeats) for name in names}
    return BenchReport(profile=profile, repeats=repeats, scenarios=results)

