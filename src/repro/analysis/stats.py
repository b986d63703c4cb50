"""Statistical replication over trace seeds.

The paper reports single-trace numbers; a reproduction should say how
stable they are. :func:`bootstrap_ci` turns per-seed samples into a
mean with a bootstrap confidence interval, so the Figure 3 margins can
be quoted as ``mean ± CI`` instead of one draw. (No SciPy dependency
needed — plain percentile bootstrap.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Summary:
    """Mean with a percentile-bootstrap confidence interval."""

    mean: float
    lo: float
    hi: float
    n: int
    confidence: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.3g} [{self.lo:.3g}, {self.hi:.3g}] (n={self.n})"

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


def bootstrap_ci(
    samples: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> Summary:
    """Percentile bootstrap CI of the mean."""
    if not samples:
        raise ValueError("need at least one sample")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    if resamples < 100:
        raise ValueError("resamples must be >= 100")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return Summary(mean=mean, lo=mean, hi=mean, n=1, confidence=confidence)
    rng = random.Random(seed)
    means = []
    for _ in range(resamples):
        total = 0.0
        for _ in range(n):
            total += samples[rng.randrange(n)]
        means.append(total / n)
    means.sort()
    alpha = (1.0 - confidence) / 2.0
    lo_idx = int(alpha * resamples)
    hi_idx = min(resamples - 1, int((1.0 - alpha) * resamples))
    return Summary(mean=mean, lo=means[lo_idx], hi=means[hi_idx], n=n,
                   confidence=confidence)

