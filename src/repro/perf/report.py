"""Bench report schema, JSON persistence, and the regression gate.

``repro bench`` measures two kinds of quantities per scenario:

* **Deterministic** — ops counters (queue mutations, probes, simulator
  events) and a checksum over the scenario's numeric outputs.
  These are machine-independent: any difference against the committed
  baseline means *behaviour* changed, which is always a failure.
* **Noisy** — wall-clock timings (best-of-``repeats`` via
  ``time.perf_counter``). Each is recorded twice: raw host seconds
  (``wall_time_s``) and seconds scaled to a fixed host speed by a
  reference snippet timed in the same run (``scaled_time_s``, see
  :mod:`repro.perf.reference`). The scaled seconds gate with a
  configurable relative threshold (default 25%), so a busy shared host
  passes while real slowdowns fail; the raw ones are kept for the
  record.

The JSON file (``BENCH_schedulers.json`` at the repo root) stores one
entry per *profile* (``full`` and ``quick``) so a quick CI run compares
against the committed quick numbers and a full run against the full
ones. Exit codes mirror ``repro lint``: 0 clean, 1 regression, 2 error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

#: Bump when the JSON layout changes incompatibly (2: ``scaled_time_s``).
SCHEMA_VERSION = 2

SUITE_NAME = "schedulers"

EXIT_CLEAN = 0
EXIT_REGRESSION = 1
EXIT_ERROR = 2

#: Default relative wall-time regression threshold (25%).
DEFAULT_THRESHOLD = 0.25

#: Absolute wall-time noise floor: a phase only counts as a timing
#: regression when it exceeds the ratio threshold AND slows down by more
#: than this many seconds. Millisecond-scale phases (the quick profile)
#: jitter past any pure ratio gate on shared hardware; a 10 ms absolute
#: delta on top keeps them honest without false positives, while phases
#: long enough to matter are untouched by the floor.
TIME_NOISE_FLOOR_S = 0.010


@dataclass(frozen=True)
class ScenarioResult:
    """One pinned scenario's measurements.

    ``wall_time_s`` maps phase name → best-of-repeats host seconds (a
    scenario may time several phases, e.g. WBG times the heap oracle
    and the merge kernel separately); ``scaled_time_s`` holds the same
    phases scaled to a fixed host speed, which the gate compares.
    ``ops`` and ``checksum`` are the deterministic half; ``params`` pins
    the workload so a comparison against a baseline produced by a
    different suite is rejected instead of silently passing.
    """

    name: str
    params: dict[str, object]
    wall_time_s: dict[str, float]
    ops: dict[str, int]
    checksum: str
    scaled_time_s: dict[str, float]

    def to_dict(self) -> dict[str, object]:
        return {
            "params": dict(self.params),
            "wall_time_s": {k: round(v, 6) for k, v in self.wall_time_s.items()},
            "scaled_time_s": {k: round(v, 6) for k, v in self.scaled_time_s.items()},
            "ops": dict(self.ops),
            "checksum": self.checksum,
        }

    @classmethod
    def from_dict(cls, name: str, data: Mapping[str, object]) -> "ScenarioResult":
        try:
            return cls(
                name=name,
                params=dict(data["params"]),  # type: ignore[arg-type]
                wall_time_s={k: float(v) for k, v in data["wall_time_s"].items()},  # type: ignore[union-attr]
                ops={k: int(v) for k, v in data["ops"].items()},  # type: ignore[union-attr]
                checksum=str(data["checksum"]),
                scaled_time_s={k: float(v) for k, v in data["scaled_time_s"].items()},  # type: ignore[union-attr]
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed scenario {name!r}: {exc!r}") from exc


@dataclass(frozen=True)
class BenchReport:
    """All scenarios measured under one profile (``full`` or ``quick``)."""

    profile: str
    repeats: int
    scenarios: dict[str, ScenarioResult] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        return {
            "repeats": self.repeats,
            "scenarios": {n: s.to_dict() for n, s in sorted(self.scenarios.items())},
        }

    @classmethod
    def from_dict(cls, profile: str, data: Mapping[str, object]) -> "BenchReport":
        scenarios = data.get("scenarios")
        if not isinstance(scenarios, Mapping):
            raise ValueError(f"profile {profile!r} has no scenarios mapping")
        return cls(
            profile=profile,
            repeats=int(data.get("repeats", 1)),  # type: ignore[arg-type]
            scenarios={
                n: ScenarioResult.from_dict(n, s) for n, s in scenarios.items()
            },
        )


def load_report_file(path: Path | str) -> dict[str, BenchReport]:
    """Read ``BENCH_schedulers.json`` → profile name → report.

    Raises ``ValueError`` on schema problems, ``OSError`` on I/O ones.
    """
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError("bench file must contain a JSON object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported bench schema_version {version!r} (expected {SCHEMA_VERSION})"
        )
    profiles = raw.get("profiles")
    if not isinstance(profiles, dict) or not profiles:
        raise ValueError("bench file has no profiles")
    return {name: BenchReport.from_dict(name, data) for name, data in profiles.items()}


def save_report_file(
    path: Path | str, report: BenchReport, existing: Optional[Mapping[str, BenchReport]] = None
) -> None:
    """Merge ``report`` into its profile slot, preserving everything else.

    ``existing`` is the previously loaded content. Other profiles are
    kept (so a ``--quick`` run does not clobber the committed full
    numbers, and vice versa), and so are the scenarios of ``report``'s
    own profile that this run did not measure (so ``repro bench
    --scenario X`` rewrites X alone); the profile's ``repeats`` is the
    run's.
    """
    profiles = dict(existing or {})
    old = profiles.get(report.profile)
    if old is not None:
        report = BenchReport(
            profile=report.profile,
            repeats=report.repeats,
            scenarios={**old.scenarios, **report.scenarios},
        )
    profiles[report.profile] = report
    payload = {
        "schema_version": SCHEMA_VERSION,
        "suite": SUITE_NAME,
        "profiles": {name: profiles[name].to_dict() for name in sorted(profiles)},
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def check_threshold(threshold: float) -> None:
    """Raise ``ValueError`` unless ``threshold`` is a usable relative gate.

    A NaN or infinite threshold would pass any slowdown, so only
    ``0 <= threshold < inf`` is accepted.
    """
    if not 0 <= threshold < math.inf:
        raise ValueError(f"threshold must be finite and non-negative, got {threshold}")


@dataclass(frozen=True)
class Finding:
    """One comparison outcome for one scenario."""

    scenario: str
    kind: str  # "checksum" | "ops" | "time" | "params" | "missing"
    message: str
    fatal: bool


@dataclass(frozen=True)
class Comparison:
    """Result of gating a fresh report against the committed baseline."""

    findings: tuple[Finding, ...]

    @property
    def regressions(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.fatal)

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def exit_code(self) -> int:
        return EXIT_CLEAN if self.ok else EXIT_REGRESSION


def compare_reports(
    current: BenchReport,
    baseline: BenchReport,
    threshold: float = DEFAULT_THRESHOLD,
) -> Comparison:
    """Gate ``current`` against ``baseline``.

    Fatal findings: a deterministic mismatch (checksum or ops — the
    scenario now *behaves* differently), changed params (the suite was
    re-pinned without refreshing the baseline), or a phase whose scaled
    seconds exceed ``baseline × (1 + threshold)`` by more than
    ``TIME_NOISE_FLOOR_S`` absolute. Scenarios new in
    ``current`` are reported informationally — they gate once committed.
    """
    check_threshold(threshold)
    findings: list[Finding] = []
    for name in sorted(current.scenarios):
        cur = current.scenarios[name]
        base = baseline.scenarios.get(name)
        if base is None:
            findings.append(Finding(name, "missing", "not in baseline (new scenario)", False))
            continue
        if cur.params != base.params:
            findings.append(Finding(
                name, "params",
                f"pinned params changed {base.params} -> {cur.params}; "
                "re-run `repro bench` on main and commit the new baseline",
                True,
            ))
            continue
        if cur.checksum != base.checksum:
            findings.append(Finding(
                name, "checksum",
                f"deterministic output changed {base.checksum} -> {cur.checksum}",
                True,
            ))
        if cur.ops != base.ops:
            diffs = sorted(set(cur.ops) | set(base.ops))
            detail = ", ".join(
                f"{k}: {base.ops.get(k)} -> {cur.ops.get(k)}"
                for k in diffs if base.ops.get(k) != cur.ops.get(k)
            )
            findings.append(Finding(name, "ops", f"ops counters changed ({detail})", True))
        for phase in sorted(cur.scaled_time_s):
            base_t = base.scaled_time_s.get(phase)
            if base_t is None or base_t <= 0:
                continue
            cur_t = cur.scaled_time_s[phase]
            ratio = cur_t / base_t
            if ratio > 1.0 + threshold and cur_t - base_t > TIME_NOISE_FLOOR_S:
                findings.append(Finding(
                    name, "time",
                    f"{phase}: {cur_t:.4f}s scaled vs baseline "
                    f"{base_t:.4f}s ({(ratio - 1) * 100:+.0f}%, "
                    f"threshold {threshold * 100:.0f}%; raw "
                    f"{cur.wall_time_s.get(phase, math.nan):.4f}s vs "
                    f"{base.wall_time_s.get(phase, math.nan):.4f}s)",
                    True,
                ))
    return Comparison(findings=tuple(findings))


def render_comparison(comparison: Comparison, log) -> None:
    """Human-readable gate summary via a ``log`` callback."""
    if not comparison.findings:
        log("bench gate: all scenarios within threshold of the baseline")
        return
    for f in comparison.findings:
        marker = "REGRESSION" if f.fatal else "note"
        log(f"bench gate [{marker}] {f.scenario}/{f.kind}: {f.message}")
    n = len(comparison.regressions)
    log(f"bench gate: {n} regression(s)" if n else "bench gate: clean (notes only)")


def render_report(report: BenchReport, log) -> None:
    """Per-scenario timing/ops summary via a ``log`` callback."""
    log(f"bench profile={report.profile} repeats={report.repeats}")
    for name in sorted(report.scenarios):
        s = report.scenarios[name]
        times = "  ".join(f"{k}={v * 1e3:.1f}ms (scaled {s.scaled_time_s[k] * 1e3:.1f}ms)"
                          for k, v in sorted(s.wall_time_s.items()))
        ops = "  ".join(f"{k}={v}" for k, v in sorted(s.ops.items()))
        log(f"  {name}: {times}")
        log(f"    ops: {ops}  checksum={s.checksum}")
