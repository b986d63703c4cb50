"""Seeded synthetic batch generators.

Used by the property tests (random batches of every shape), the
sensitivity ablations, and the examples. All generators take an
explicit ``seed`` so every run is reproducible.
"""

from __future__ import annotations

import random

from repro.models.task import Task, TaskSet


def lognormal_batch(
    n: int, median: float = 20.0, sigma: float = 1.0, seed: int = 0
) -> TaskSet:
    """Heavy-tailed batch: cycles log-normal with the given median.

    Realistic for mixed computing services — many small jobs, a few
    giant ones — and the regime where cost-aware ordering pays most.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if median <= 0 or sigma <= 0:
        raise ValueError("median and sigma must be positive")
    rng = random.Random(seed)
    import math

    mu = math.log(median)
    return TaskSet(
        Task(cycles=rng.lognormvariate(mu, sigma), name=f"ln{i}") for i in range(n)
    )


def bimodal_batch(
    n: int,
    small: float = 5.0,
    large: float = 500.0,
    large_fraction: float = 0.2,
    jitter: float = 0.1,
    seed: int = 0,
) -> TaskSet:
    """Two task populations (e.g. train vs ref inputs), with jitter."""
    if not (0.0 <= large_fraction <= 1.0):
        raise ValueError("large_fraction must be in [0, 1]")
    if small <= 0 or large <= 0 or not (0.0 <= jitter < 1.0):
        raise ValueError("invalid size or jitter parameters")
    rng = random.Random(seed)
    tasks = []
    for i in range(n):
        base = large if rng.random() < large_fraction else small
        cycles = base * rng.uniform(1.0 - jitter, 1.0 + jitter)
        tasks.append(Task(cycles=cycles, name=f"bi{i}"))
    return TaskSet(tasks)

