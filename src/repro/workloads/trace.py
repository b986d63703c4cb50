"""Online-judge trace generator (the Section V-B workload substitute).

The paper replays half an hour of the Judgegirl online judge (National
Taiwan University) recorded during a final exam with five problems:
**50 525 interactive tasks** (problem choosing and score querying —
tiny, response-time-critical) and **768 non-interactive tasks** (code
judging — heavy, no strict deadline). The trace itself is proprietary;
only those aggregates are published, and they are exactly the knobs
:class:`JudgeTraceConfig` exposes. The generator reproduces:

* the two task classes with the published counts over the published
  window;
* exam-shaped burstiness (submission pressure builds toward the end of
  the exam; queries spike at the start and the end) via a
  piecewise-constant arrival-intensity profile;
* per-problem judging weight: each of the five problems has its own
  judging-cost scale, and submissions pick a problem non-uniformly.

Everything is driven by one seed, so experiments are reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.models.task import Task, TaskKind


@dataclass(frozen=True)
class JudgeTraceConfig:
    """Knobs for the synthetic Judgegirl trace.

    Defaults reproduce the published Section V-B aggregates: 1800 s,
    50 525 interactive + 768 non-interactive tasks, five problems.
    """

    duration_s: float = 1800.0
    n_interactive: int = 50_525
    n_noninteractive: int = 768
    #: Relative arrival intensity per equal-width time bin. Interactive
    #: queries spike at the start (reading problems) and end (checking
    #: scores); submissions pile up hard against the exam deadline —
    #: the defining burst of a final-exam trace, and what makes the
    #: baselines' FIFO queues expensive in Figure 3.
    interactive_profile: tuple[float, ...] = (2.0, 1.0, 0.8, 0.8, 1.2, 2.2)
    noninteractive_profile: tuple[float, ...] = (0.02, 0.05, 0.1, 0.25, 0.9, 10.0)
    #: Interactive work: uniform in [lo, hi] Gcycles (~1-4 ms at 3 GHz).
    interactive_cycles: tuple[float, float] = (0.003, 0.012)
    #: Per-problem judging-cost medians (Gcycles) and selection weights.
    problem_medians: tuple[float, ...] = (7.2, 12.6, 18.0, 28.8, 46.8)
    problem_weights: tuple[float, ...] = (0.30, 0.25, 0.20, 0.15, 0.10)
    judging_sigma: float = 0.6
    #: Firm response deadline attached to interactive tasks (seconds).
    interactive_deadline_s: float = 1.0
    seed: int = 2014

    def __post_init__(self) -> None:
        # a NaN compares false either way, so each check is written to
        # fail on it; non-finite values would otherwise skew the arrival
        # CDF silently or only fail later, inside Task
        if not (0 < self.duration_s < math.inf):
            raise ValueError(f"duration_s must be finite and > 0, got {self.duration_s!r}")
        if self.n_interactive < 0 or self.n_noninteractive < 0:
            raise ValueError("task counts must be non-negative")
        if len(self.problem_medians) != len(self.problem_weights):
            raise ValueError("problem medians and weights must align")
        for name in ("interactive_profile", "noninteractive_profile", "problem_weights"):
            weights = getattr(self, name)
            if not all(0 <= w < math.inf for w in weights) or not any(w > 0 for w in weights):
                raise ValueError(
                    f"{name} must be finite and >= 0, not all zero, got {weights!r}"
                )
        if not all(0 < m < math.inf for m in self.problem_medians):
            raise ValueError(
                f"problem_medians must be finite and > 0, got {self.problem_medians!r}"
            )
        if not (0 <= self.judging_sigma < math.inf):
            raise ValueError(f"judging_sigma must be finite and >= 0, got {self.judging_sigma!r}")
        lo, hi = self.interactive_cycles
        if not (0 < lo <= hi):
            raise ValueError("interactive_cycles must satisfy 0 < lo <= hi")


def _cdf(weights: Sequence[float]) -> list[float]:
    """Running sums of ``weights`` normalised, ending at exactly 1.0.

    The rounded running sum can end below 1.0 (``0.9999999999999998``),
    where ``random()`` can still draw (up to ``1 - 2**-53``), and a
    ``while cdf[b] < u`` scan would then run off the table. Every entry
    from the last positive weight on is pinned to 1.0, so each draw
    lands in a bin of positive weight.
    """
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    last = max(i for i, w in enumerate(weights) if w > 0)
    cdf[last:] = [1.0] * (len(cdf) - last)
    return cdf


def _profile_arrivals(
    rng: random.Random, n: int, duration: float, profile: Sequence[float]
) -> list[float]:
    """Draw ``n`` arrival times from a piecewise-constant intensity.

    Inverse-CDF sampling over the bin histogram: pick a bin by weight,
    then a uniform offset within it. Exact count, seeded, O(n log b).
    """
    bins = len(profile)
    cdf = _cdf(profile)
    width = duration / bins
    times = []
    for _ in range(n):
        u = rng.random()
        b = 0
        while cdf[b] < u:
            b += 1
        times.append(width * (b + rng.random()))
    times.sort()
    return times


def generate_judge_trace(config: JudgeTraceConfig | None = None) -> list[Task]:
    """Build the full trace, sorted by arrival time."""
    cfg = config if config is not None else JudgeTraceConfig()
    rng = random.Random(cfg.seed)

    tasks: list[Task] = []

    # interactive: score queries / problem choosing
    it_times = _profile_arrivals(rng, cfg.n_interactive, cfg.duration_s,
                                 cfg.interactive_profile)
    lo, hi = cfg.interactive_cycles
    for i, t in enumerate(it_times):
        tasks.append(
            Task(
                cycles=rng.uniform(lo, hi),
                arrival=t,
                deadline=t + cfg.interactive_deadline_s,
                kind=TaskKind.INTERACTIVE,
                name=f"query{i}",
            )
        )

    # non-interactive: code judging, one of five problems each
    ni_times = _profile_arrivals(rng, cfg.n_noninteractive, cfg.duration_s,
                                 cfg.noninteractive_profile)
    cum = _cdf(cfg.problem_weights)
    for i, t in enumerate(ni_times):
        u = rng.random()
        p = 0
        while cum[p] < u:
            p += 1
        median = cfg.problem_medians[p]
        cycles = rng.lognormvariate(math.log(median), cfg.judging_sigma)
        tasks.append(
            Task(
                cycles=cycles,
                arrival=t,
                kind=TaskKind.NONINTERACTIVE,
                name=f"submit{i}/p{p + 1}",
            )
        )

    tasks.sort(key=lambda t: (t.arrival, t.task_id))
    return tasks


def generate_open_loop_trace(
    duration_s: float,
    interactive_per_s: float,
    noninteractive_per_s: float,
    interactive_cycles: tuple[float, float] = (0.003, 0.012),
    noninteractive_median: float = 15.0,
    noninteractive_sigma: float = 0.7,
    seed: int = 0,
) -> list[Task]:
    """Generic open-loop online workload: homogeneous Poisson arrivals.

    The Judgegirl generator models one specific service; this one is the
    neutral alternative for experiments that should not inherit the
    exam-burst shape — steady Poisson streams of both task classes with
    exponential inter-arrival gaps. Same task-class semantics as
    :func:`generate_judge_trace`.
    """
    # a non-finite duration or rate never ends the arrival loop below
    for name, value in (("duration_s", duration_s),
                        ("interactive_per_s", interactive_per_s),
                        ("noninteractive_per_s", noninteractive_per_s),
                        ("noninteractive_median", noninteractive_median),
                        ("noninteractive_sigma", noninteractive_sigma)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if interactive_per_s < 0 or noninteractive_per_s < 0:
        raise ValueError("arrival rates must be non-negative")
    lo, hi = interactive_cycles
    if not (0 < lo <= hi):
        raise ValueError("interactive_cycles must satisfy 0 < lo <= hi")
    if noninteractive_median <= 0 or noninteractive_sigma < 0:
        raise ValueError("invalid non-interactive size parameters")

    rng = random.Random(seed)
    tasks: list[Task] = []

    def arrivals(rate: float) -> list[float]:
        out = []
        t = 0.0
        if rate <= 0:
            return out
        while True:
            t += rng.expovariate(rate)
            if t >= duration_s:
                return out
            out.append(t)

    for i, t in enumerate(arrivals(interactive_per_s)):
        tasks.append(
            Task(cycles=rng.uniform(lo, hi), arrival=t, deadline=t + 1.0,
                 kind=TaskKind.INTERACTIVE, name=f"query{i}")
        )
    for i, t in enumerate(arrivals(noninteractive_per_s)):
        tasks.append(
            Task(
                cycles=rng.lognormvariate(math.log(noninteractive_median),
                                          noninteractive_sigma),
                arrival=t,
                kind=TaskKind.NONINTERACTIVE,
                name=f"job{i}",
            )
        )
    tasks.sort(key=lambda t: (t.arrival, t.task_id))
    return tasks


@dataclass(frozen=True)
class TraceSummary:
    """Aggregates of a generated trace (mirrors what the paper reports)."""

    duration_s: float
    n_interactive: int
    n_noninteractive: int
    interactive_cycles_total: float
    noninteractive_cycles_total: float

    @property
    def total_tasks(self) -> int:
        return self.n_interactive + self.n_noninteractive

    def utilisation_at(self, rate_ghz: float, n_cores: int) -> float:
        """Offered load as a fraction of platform capacity at ``rate_ghz``."""
        if rate_ghz <= 0 or n_cores < 1:
            raise ValueError("need positive rate and at least one core")
        work_s = (self.interactive_cycles_total + self.noninteractive_cycles_total) / rate_ghz
        return work_s / (self.duration_s * n_cores)


def trace_summary(trace: Sequence[Task]) -> TraceSummary:
    """Summarise a trace the way Section V-B describes its workload."""
    inter = [t for t in trace if t.kind is TaskKind.INTERACTIVE]
    noninter = [t for t in trace if t.kind is TaskKind.NONINTERACTIVE]
    last = max((t.arrival for t in trace), default=0.0)
    return TraceSummary(
        duration_s=last,
        n_interactive=len(inter),
        n_noninteractive=len(noninter),
        interactive_cycles_total=sum(t.cycles for t in inter),
        noninteractive_cycles_total=sum(t.cycles for t in noninter),
    )
