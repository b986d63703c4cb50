"""Cycle-count estimation (Section IV assumption 1, Section V-B).

The online model assumes "the number of cycles needed to complete a
task is known because it can be estimated by profiling", and Section
V-B spells out how the judge does it: interactive request costs are
profiled offline, while "we can still predict the resource requirement
of a newly arrival non-interactive task by taking average of the
previous completed submissions".

These estimators plug into :class:`repro.schedulers.lmc.LMCOnlineScheduler`
(``estimator=`` argument): scheduling decisions then use *estimated*
cycles while the simulator executes *true* cycles, and completions feed
back into the estimator — exactly the paper's deployment loop. The
sensitivity of LMC to estimation error is quantified in
``benchmarks/bench_ablation_estimation.py``.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional, Protocol

from repro.models.task import Task


def category_of(task: Task) -> str:
    """Default task categorisation: the judge's problem id.

    Trace tasks are named ``submit<i>/p<k>`` / ``query<i>``; everything
    after the ``/`` is the category ("p3"), queries fall into one
    bucket, and unnamed tasks share a catch-all.
    """
    if "/" in task.name:
        return task.name.rsplit("/", 1)[1]
    if task.name.startswith("query"):
        return "query"
    return "_default"


class CycleEstimator(Protocol):
    """What the online scheduler needs from an estimator."""

    def estimate(self, task: Task) -> float:
        """Predicted cycles for a newly arrived task (> 0)."""
        ...

    def observe(self, task: Task, true_cycles: float) -> None:
        """Feedback after the task completes."""
        ...


class MeanEstimator:
    """Per-category running mean — Section V-B's "average of the
    previous completed submissions".

    Parameters
    ----------
    default:
        Cold-start estimate for a category with no completions yet.
    key:
        Task → category function (defaults to :func:`category_of`).
    """

    def __init__(self, default: float = 10.0,
                 key: Callable[[Task], str] = category_of) -> None:
        if default <= 0:
            raise ValueError("default estimate must be positive")
        self.default = default
        self.key = key
        self._sums: dict[str, float] = {}
        self._counts: dict[str, int] = {}

    def estimate(self, task: Task) -> float:
        cat = self.key(task)
        n = self._counts.get(cat, 0)
        if n == 0:
            return self.default
        return self._sums[cat] / n

    def observe(self, task: Task, true_cycles: float) -> None:
        if true_cycles <= 0:
            raise ValueError("observed cycles must be positive")
        cat = self.key(task)
        self._sums[cat] = self._sums.get(cat, 0.0) + true_cycles
        self._counts[cat] = self._counts.get(cat, 0) + 1

    def observations(self, category: str) -> int:
        return self._counts.get(category, 0)

    def mean_for(self, category: str) -> float:
        """Current mean for a category (the cold-start default if unseen)."""
        n = self._counts.get(category, 0)
        if n == 0:
            return self.default
        return self._sums[category] / n


class NoisyOracle:
    """True cycles × multiplicative log-normal noise — for sensitivity
    ablations: how much does LMC degrade as profiling gets worse?

    ``sigma = 0`` returns the true cycles (the paper's assumption); noise is
    deterministic per task id, so repeated estimates of one task agree.
    """

    def __init__(self, sigma: float, seed: int = 0) -> None:
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.sigma = sigma
        self._seed = seed

    def estimate(self, task: Task) -> float:
        if self.sigma == 0.0:
            return task.cycles
        rng = random.Random((self._seed << 20) ^ task.task_id)
        return task.cycles * math.exp(rng.gauss(0.0, self.sigma))

    def observe(self, task: Task, true_cycles: float) -> None:  # pragma: no cover
        pass
