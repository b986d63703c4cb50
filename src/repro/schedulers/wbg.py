"""Workload Based Greedy plan generator (thin wrapper over the core).

The algorithm itself lives in :mod:`repro.core.batch_multi`; this
module adapts it to the plan-generator signature shared by every batch
baseline so the Figure 2 experiment can treat all three schedulers
uniformly. ``kernel="scalar"`` plans with the heap-loop oracle from
:mod:`repro.verify.reference` instead, for checks that compare two
independent implementations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.core.batch_multi import WorkloadBasedGreedy
from repro.models.cost import CoreSchedule, CostModel
from repro.models.rates import RateTable, per_core_tables
from repro.models.task import Task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer


def wbg_plan(
    tasks: Iterable[Task],
    table: RateTable | Sequence[RateTable],
    n_cores: int,
    re: float,
    rt: float,
    kernel: str = "auto",
    tracer: "Optional[Tracer]" = None,
) -> list[CoreSchedule]:
    """Optimal batch plan via Workload Based Greedy (Algorithm 3).

    ``table`` may be a single :class:`RateTable` (homogeneous platform)
    or one per core (heterogeneous). ``kernel="auto"`` (the default)
    plans with :class:`~repro.core.batch_multi.WorkloadBasedGreedy`;
    ``kernel="scalar"`` runs the heap-loop oracle
    :func:`repro.verify.reference.wbg_heap_plan`, which plans
    bit-identically and takes no tracer. ``tracer`` (see
    :mod:`repro.obs`) records the Algorithm 1 ranges and every
    Algorithm 3 slot pick without changing the plan.
    """
    if kernel not in ("auto", "scalar"):
        raise ValueError(f"unknown kernel {kernel!r} (expected auto/scalar)")
    if kernel == "scalar" and tracer is not None:
        raise ValueError("kernel='scalar' runs the untraced reference; drop the tracer")
    if n_cores < 1:
        raise ValueError("n_cores must be >= 1")
    models = [CostModel(t, re, rt) for t in per_core_tables(table, n_cores)]
    if kernel == "scalar":
        from repro.verify.reference import wbg_heap_plan

        return wbg_heap_plan(models, tasks)
    return WorkloadBasedGreedy(models, tracer=tracer).schedule(tasks)
