"""NumPy-vectorised cost kernels for large batches and hot loops.

The pure-Python evaluators in :mod:`repro.models.cost` are the readable
reference; for parameter sweeps over 10⁵-task batches the interpreter
loop dominates. This module vectorises the hot computations — the
positional costs ``CB*(1..n)``, the Workload Based Greedy slot
merge and its optimal-cost sum ``Σ C*·L``, and the Equation 27
interactive marginal — with NumPy, following the repo's HPC guidance
(vectorise the measured bottleneck, keep the loop version as the
specification). A single core is the one-element case of the
multi-core kernels: ``wbg_optimal_cost([r], L)`` is Algorithm 2's
optimal cost.

Bit-identity matters more than raw speed: every kernel that mirrors a
scheduling *decision* (:func:`wbg_slot_sequence`,
:func:`interactive_marginal_batch`) evaluates the exact float
expression of its scalar counterpart in the same association order, so
the fast path produces bit-identical plans — verified by the
``wbg_kernel`` differential fuzz check and the cache-correctness tests.
The kernels keep no state between calls: each plan fills its own
positional costs (see docs/PERFORMANCE.md).

Agreement with the scalar implementations is property-tested; the
speedup is measured in ``benchmarks/bench_ablation_vectorized.py`` and
gated by ``repro bench``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.dominating import DominatingRanges


def _fill_positional(
    ranges: DominatingRanges, cost_out: np.ndarray, rate_out: Optional[np.ndarray] = None
) -> None:
    """Fill ``cost_out[k-1] = CB*(k)`` (and optionally the optimal rate).

    The single writer for every positional prefix in this module. The
    expression mirrors ``CostModel.backward_position_cost`` term by term
    — ``(Re·E) + ((k·Rt)·T)`` in that association — so the array entries
    are bit-identical to the scalar evaluator's returns.
    """
    model = ranges.model
    n = cost_out.shape[0]
    k = np.arange(1, n + 1, dtype=np.float64)
    for r in ranges:
        lo = r.lo
        hi = n + 1 if r.hi is None else min(r.hi, n + 1)
        if lo > n or lo >= hi:
            continue
        sl = slice(lo - 1, hi - 1)
        cost_out[sl] = (
            model.re * model.table.energy(r.rate)
            + k[sl] * model.rt * model.table.time(r.rate)
        )
        if rate_out is not None:
            rate_out[sl] = r.rate


def positional_cost_prefix(ranges: DominatingRanges, n: int) -> np.ndarray:
    """``CB*(1..n)`` for a ranges instance, as a fresh array."""
    if n < 1:
        raise ValueError("n must be >= 1")
    costs = np.empty(n, dtype=np.float64)
    _fill_positional(ranges, costs)
    return costs


def _merge_slots(
    ranges_per_core: Sequence[DominatingRanges], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The WBG merge: ``(costs, rates, cores, order)`` over the ``R × n`` slots.

    ``costs``/``rates``/``cores`` are the flat candidate arrays
    (core-major, slot ``k`` of core ``j`` at index ``j·n + k``), filled
    once per core, and ``order`` holds the flat indices of the ``n``
    cheapest, in pick order: cost first, cross-core ties on the core
    index.
    """
    n_cores = len(ranges_per_core)
    if n_cores < 1:
        raise ValueError("at least one core is required")
    costs = np.empty(n_cores * n, dtype=np.float64)
    rates = np.empty(n_cores * n, dtype=np.float64)
    for j, r in enumerate(ranges_per_core):
        _fill_positional(r, costs[j * n:(j + 1) * n], rates[j * n:(j + 1) * n])
    cores = np.repeat(np.arange(n_cores, dtype=np.intp), n)
    order = np.lexsort((cores, costs))[:n]
    return costs, rates, cores, order


def wbg_slot_sequence(
    ranges_per_core: Sequence[DominatingRanges], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first ``n`` globally cheapest ``(core, slot)`` pairs of Algorithm 3.

    Returns ``(cores, rates)`` aligned with tasks in descending-weight
    order: entry ``i`` is the core index and dominating rate that the
    ``i``-th heaviest task receives.

    Replaces the per-task heap loop with one lexicographic sort over the
    ``R × n`` candidate slots. Equivalence with the heap is exact, not
    approximate: ``CB*_j(k)`` is strictly increasing in ``k`` (so a
    core's slots already arrive in pop order) and cross-core cost ties
    break on the core index — precisely the heap's ``(cost, j)``
    comparison. Costs come from :func:`_fill_positional`,
    so they are bit-identical to what the heap-loop oracle
    (:func:`repro.verify.reference.wbg_heap_picks`) feeds its heap.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _costs, rates, cores, order = _merge_slots(ranges_per_core, n)
    return cores[order], rates[order]


def wbg_optimal_cost(
    ranges_per_core: Sequence[DominatingRanges],
    cycles: Sequence[float] | np.ndarray,
) -> float:
    """Vectorised ``Σ C*·L`` of the Workload Based Greedy assignment.

    Merge the per-core positional costs (the merge of
    :func:`wbg_slot_sequence`), pair them with descending cycle counts,
    and reduce with one dot product. With one core this is the
    single-core optimal cost ``Σ CB*(k)·L^B_k``.
    """
    L = np.sort(np.asarray(cycles, dtype=np.float64))[::-1]
    n = int(L.size)
    if n == 0:
        return 0.0
    if np.any(L <= 0):
        raise ValueError("cycle counts must be positive")
    costs, _rates, _cores, order = _merge_slots(ranges_per_core, n)
    return float(costs[order] @ L)


def interactive_marginal_batch(
    re: float,
    rt: float,
    cycles: float,
    pm_energy: np.ndarray,
    pm_time: np.ndarray,
    delayed_counts: np.ndarray,
) -> np.ndarray:
    """Equation 27 over all cores at once.

    ``pm_energy`` / ``pm_time`` are each core's ``E(pm)`` / ``T(pm)`` at
    its maximum frequency. The expression replays
    ``CostModel.interactive_marginal_cost`` term by term —
    ``own = (Re·L)·E + (Rt·L)·T``, ``inflicted = ((Rt·L)·T)·N`` — so the
    entries, and therefore the argmin core choice, are bit-identical to
    the scalar loop.

    The LMC policy does not call this: over a handful of cores the
    one-pass scalar loop in
    :meth:`~repro.schedulers.lmc.LMCOnlineScheduler.select_core` is
    faster than one NumPy call (about 3 µs against 14 µs per four-core
    decision on a 2-vCPU Xeon). The kernel stays as a batch evaluator,
    tested bit-for-bit against the scalar costs and against that loop's
    choice.
    """
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    if np.any(delayed_counts < 0):
        raise ValueError("waiting_tasks must be non-negative")
    own = re * cycles * pm_energy + rt * cycles * pm_time
    inflicted = rt * cycles * pm_time * delayed_counts
    return own + inflicted
