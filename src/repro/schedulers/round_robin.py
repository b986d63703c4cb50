"""Naive round-robin batch baseline.

Not one of the paper's comparison points — included as the sanity
floor: submission-order round-robin placement at a single fixed rate.
Any scheduler claiming intelligence should beat it on total cost for
skewed workloads.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.models.cost import CoreSchedule, Placement, make_placement
from repro.models.rates import RateTable
from repro.models.task import Task


def round_robin_plan(
    tasks: Iterable[Task],
    table: RateTable,
    n_cores: int,
    rate: Optional[float] = None,
) -> list[CoreSchedule]:
    """Assign task ``i`` to core ``i mod n_cores`` at one fixed rate."""
    if n_cores < 1:
        raise ValueError("n_cores must be >= 1")
    p = table.max_rate if rate is None else rate
    table.index_of(p)
    lanes: list[list[Placement]] = [[] for _ in range(n_cores)]
    for i, task in enumerate(tasks):
        lanes[i % n_cores].append(make_placement(task, p))
    return [CoreSchedule(lanes[j], core_index=j) for j in range(n_cores)]
