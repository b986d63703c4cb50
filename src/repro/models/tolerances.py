"""Shared numerical tolerances.

Every float comparison in the production code and in the
:mod:`repro.verify` invariant checker draws its slack from this module,
so the verification harness and the code it audits cannot drift apart.
Historically these lived as scattered ``1e-9`` literals in
``core/deadline.py``, ``core/deadline_heuristics.py``, ``core/budget.py``,
``core/dynamic.py``, ``core/dominating.py``, ``governors/base.py`` and the
simulator; they are now named once here.

The values are deliberately coarse relative to double precision
(``eps ≈ 2.2e-16``): the quantities compared are sums of at most a few
thousand products of well-scaled inputs, so ``1e-9`` relative slack
absorbs accumulated rounding without masking genuine algorithmic
divergence.
"""

from __future__ import annotations

#: Generic relative tolerance for cost/energy/time comparisons.
REL_TOL = 1e-9

#: Generic absolute tolerance for quantities expected to be O(1) or larger.
ABS_TOL = 1e-9

#: Absolute tolerance for *aggregate* comparisons (sums over many tasks),
#: where per-term rounding accumulates: cross-checking the incremental
#: Equation-32 aggregates of ``DynamicCostIndex`` against a from-scratch
#: rebuild, and the invariant checker's re-derived schedule costs.
AGG_ABS_TOL = 1e-6

#: Slack granted when testing a completion time against a deadline or an
#: energy total against a budget: ``t <= deadline + TIME_SLACK`` counts
#: as meeting the deadline.
TIME_SLACK = 1e-9

#: A task execution with fewer than this many cycles remaining counts as
#: finished (the simulator's zero-remainder threshold).
CYCLE_EPS = 1e-9

#: Slack on the ``[0, 1]`` load bound a governor accepts (busy-time
#: accounting can overshoot a sampling window by float noise).
LOAD_SLACK = 1e-9

#: Half-width of the window around an integer within which a dominating
#: -range crossover is treated as *potentially* tied and re-resolved by
#: direct cost comparison (see ``repro.core.dominating``).
TIE_EPS = 1e-9

#: Tight absolute slack for *structural* comparisons whose operands are
#: nearly exact: interval-containment tests (YDS critical windows),
#: scheduling-in-the-past clock checks in the event queue, and the
#: deadline-certificate feasibility checks. Tighter than :data:`ABS_TOL`
#: because these quantities are raw inputs or single subtractions, not
#: accumulated sums.
STRICT_ABS_TOL = 1e-12

#: Minimum strict improvement an exhaustive/greedy argmin must see
#: before switching incumbents. Keeps brute-force searches and Pareto
#: pruning deterministic under float noise: ties go to the first
#: candidate in iteration order.
IMPROVE_TOL = 1e-12

#: Strict-improvement threshold for YDS critical-interval *intensity*
#: (work / width). Much tighter than :data:`IMPROVE_TOL`: intensities of
#: distinct intervals are either equal-by-construction or separated by
#: far more than accumulated rounding, and the first-maximum tie-break
#: fixes the constructed schedule.
INTENSITY_IMPROVE_TOL = 1e-15

#: Relative tolerance for serialization round-trip equality of task
#: fields (CSV/JSONL writers format with enough digits that round-trips
#: are exact to well under this).
ROUNDTRIP_REL_TOL = 1e-12

#: Relative convergence threshold for the Lagrange-multiplier bisection
#: in ``core/budget.py``: stop once the bracket satisfies
#: ``hi/lo < 1 + BISECT_REL_TOL``.
BISECT_REL_TOL = 1e-12

#: Slack, in (giga)cycles, the platform grants an ``advance`` past the
#: running task's remaining work before declaring the completion-event
#: bookkeeping broken. Coarser than :data:`CYCLE_EPS` because the
#: overrun is a product of a time delta and a rate, each carrying
#: rounding of its own.
CYCLE_OVERRUN_TOL = 1e-6

#: Clock resolution slack, in ulps of the absolute simulated time. A
#: completion event fires at the task's finish rounded to the clock, so
#: at that instant the work left (or overrun) is worth up to about one
#: ulp of ``now`` at each end of the last interval. At a clock of 1e9 s
#: that is ~1e-7 s, more than :data:`CYCLE_EPS` of a tiny task's cycles
#: and more than :data:`CYCLE_OVERRUN_TOL` of a slow core's. Used only
#: through :func:`repro.simulator.platform.finish_tolerance`.
CLOCK_ULPS = 2.0

#: Relative tolerance for the order-statistic tree's self-check of its
#: ``sum``/``wsum`` aggregates against a from-scratch recomputation
#: (the aggregates are maintained incrementally across thousands of
#: rotations, so per-update rounding accumulates).
AGG_REL_TOL = 1e-6

__all__ = [
    "REL_TOL",
    "ABS_TOL",
    "AGG_ABS_TOL",
    "AGG_REL_TOL",
    "BISECT_REL_TOL",
    "CLOCK_ULPS",
    "CYCLE_EPS",
    "CYCLE_OVERRUN_TOL",
    "IMPROVE_TOL",
    "INTENSITY_IMPROVE_TOL",
    "LOAD_SLACK",
    "ROUNDTRIP_REL_TOL",
    "STRICT_ABS_TOL",
    "TIE_EPS",
    "TIME_SLACK",
]
