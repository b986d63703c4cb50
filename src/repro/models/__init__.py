"""Analytical models from Section II of the paper.

This subpackage defines the four models the paper builds its schedulers on:

* :mod:`repro.models.task` — the task model ``j_k = (L_k, A_k, D_k)``
  (Section II-A).
* :mod:`repro.models.rates` — the discrete per-core processing-rate set
  ``P`` together with the per-cycle energy/time functions ``E(p)`` and
  ``T(p)`` (Sections II-B and II-C), including the paper's Table II
  parameters and the two CPUs named in the paper (Intel i7-950 and ARM
  Exynos-4412).
* :mod:`repro.models.energy` — the classical continuous
  ``power ∝ frequency³`` model used by the paper's NP-hardness
  construction and the YDS baseline.
* :mod:`repro.models.cost` — the monetary cost model (Equations 3-13):
  energy cost ``Re·L·E(p)``, temporal cost ``Rt·(turnaround)``, the
  positional cost ``C(k, p)`` and its backward form ``CB(k, p)``.
"""

from repro.models.task import Task, TaskKind, TaskSet
from repro.models.rates import (
    RateTable,
    TABLE_II,
    I7_950,
    EXYNOS_4412,
    per_core_tables,
    rate_table_from_power_law,
)
from repro.models.energy import PowerLawEnergy
from repro.models.cost import CostModel, ScheduleCost, CoreSchedule, Placement

__all__ = [
    "Task",
    "TaskKind",
    "TaskSet",
    "RateTable",
    "TABLE_II",
    "I7_950",
    "EXYNOS_4412",
    "per_core_tables",
    "rate_table_from_power_law",
    "PowerLawEnergy",
    "CostModel",
    "ScheduleCost",
    "CoreSchedule",
    "Placement",
]
