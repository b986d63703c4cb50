"""The paper's primary contribution: batch and online DVFS schedulers.

* :mod:`repro.core.dominating` — Algorithm 1, dominating position
  ranges in ``Θ(|P|)`` via a convex-hull pass.
* :mod:`repro.core.batch_single` — Algorithm 2, the optimal single-core
  batch schedule ("Longest Task Last") in ``O(|J| log |J|)``.
* :mod:`repro.core.batch_multi` — Theorem 4's round-robin rule for
  homogeneous multi-cores and Algorithm 3, Workload Based Greedy, for
  heterogeneous multi-cores.
* :mod:`repro.core.deadline` — Theorems 1-2: the Partition reduction
  showing Deadline-SingleCore / Deadline-MultiCore NP-complete, plus
  exact solvers for small instances.
* :mod:`repro.core.dynamic` — Section IV-A / Algorithms 4-6: dynamic
  task insertion and deletion with ``O(|P̂| + log N)`` maintenance and
  ``Θ(1)`` total-cost queries.
* :mod:`repro.core.online_lmc` — Section IV: the Least Marginal Cost
  online scheduling policy (Equation 27 and sorted-queue insertion).
"""

from repro.core.dominating import DominatingRange, DominatingRanges, brute_force_ranges
from repro.core.batch_single import schedule_single_core, brute_force_single_core
from repro.core.batch_multi import (
    WorkloadBasedGreedy,
    schedule_homogeneous_round_robin,
)
from repro.core.dynamic import DynamicCostIndex, NaiveCostIndex
from repro.core.deadline import (
    DeadlineInstance,
    partition_to_deadline_single_core,
    solve_deadline_single_core,
    solve_partition_bruteforce,
)
from repro.core.online_lmc import LeastMarginalCostPolicy
from repro.core.budget import BudgetSchedule, pareto_frontier, schedule_with_energy_budget

__all__ = [
    "DominatingRange",
    "DominatingRanges",
    "brute_force_ranges",
    "schedule_single_core",
    "brute_force_single_core",
    "WorkloadBasedGreedy",
    "schedule_homogeneous_round_robin",
    "DynamicCostIndex",
    "NaiveCostIndex",
    "DeadlineInstance",
    "partition_to_deadline_single_core",
    "solve_deadline_single_core",
    "solve_partition_bruteforce",
    "LeastMarginalCostPolicy",
    "BudgetSchedule",
    "pareto_frontier",
    "schedule_with_energy_budget",
]
