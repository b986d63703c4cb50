"""NumPy-vectorised cost kernels for large batches and hot loops.

The pure-Python evaluators in :mod:`repro.models.cost` are the readable
reference; for parameter sweeps over 10⁵-task batches the interpreter
loop dominates. This module vectorises the hot computations —
whole-schedule cost evaluation, the optimal-cost sum ``Σ CB*(k)·L^B_k``,
batched positional costs ``C(k,p)``, the Workload Based Greedy slot
merge, and the Equation 27 interactive marginal — with NumPy, following
the repo's HPC guidance (vectorise the measured bottleneck, keep the
loop version as the specification).

Two guarantees matter more than raw speed:

* **Bit-identity.** Every kernel that mirrors a scheduling *decision*
  (:func:`wbg_slot_sequence`, :func:`interactive_marginal_batch`)
  evaluates the exact float expression of its scalar counterpart in the
  same association order, so the fast path produces bit-identical plans
  — verified by the ``wbg_kernel`` differential fuzz check and the
  cache-correctness tests.
* **Amortised reuse.** Per-position prefixes (``CB*(1..n)`` and the
  per-position optimal rate) are memoized per shared
  :class:`~repro.core.dominating.DominatingRanges` instance and grown
  on demand, completing the ``(rate menu, Re, Rt, n)`` cache key that
  :meth:`DominatingRanges.cached` starts (see docs/PERFORMANCE.md).

Agreement with the scalar implementations is property-tested; the
speedup is measured in ``benchmarks/bench_ablation_vectorized.py`` and
gated by ``repro bench``.
"""

from __future__ import annotations

import weakref
from typing import Optional, Sequence

import numpy as np

from repro.core.dominating import DominatingRanges
from repro.models.cost import CoreSchedule, CostModel


def core_cost_vectorized(model: CostModel, schedule: CoreSchedule) -> float:
    """Vectorised Equation 8 for one core's sequence.

    ``O(n)`` NumPy ops instead of a Python loop: execution times via a
    rate→T lookup, turnarounds via ``cumsum``.
    """
    n = len(schedule)
    if n == 0:
        return 0.0
    table = model.table
    rate_index = {p: i for i, p in enumerate(table.rates)}
    idx = np.fromiter(
        (rate_index[pl.rate] for pl in schedule), dtype=np.intp, count=n
    )
    cycles = np.fromiter((pl.task.cycles for pl in schedule), dtype=np.float64, count=n)
    times = np.asarray(table.time_per_cycle)[idx] * cycles
    energies = np.asarray(table.energy_per_cycle)[idx] * cycles
    turnarounds = np.cumsum(times)
    return float(model.re * energies.sum() + model.rt * turnarounds.sum())


def optimal_cost_vectorized(
    model: CostModel,
    cycles: Sequence[float] | np.ndarray,
    ranges: Optional[DominatingRanges] = None,
) -> float:
    """Vectorised ``Σ CB*(k)·L^B_k`` — the single-core optimal cost.

    Sorts descending (backward positions), builds the per-position
    ``CB*`` vector from the dominating ranges without looping over
    positions (each range contributes an arithmetic-progression slice),
    and reduces with one dot product.
    """
    L = np.sort(np.asarray(cycles, dtype=np.float64))[::-1]
    n = L.size
    if n == 0:
        return 0.0
    if np.any(L <= 0):
        raise ValueError("cycle counts must be positive")
    if ranges is None:
        ranges = DominatingRanges.from_cost_model(model)

    cb = np.empty(n, dtype=np.float64)
    k = np.arange(1, n + 1, dtype=np.float64)
    for r in ranges:
        lo = r.lo
        hi = n + 1 if r.hi is None else min(r.hi, n + 1)
        if lo > n or lo >= hi:
            continue
        sl = slice(lo - 1, hi - 1)
        cb[sl] = (
            model.re * model.table.energy(r.rate)
            + k[sl] * model.rt * model.table.time(r.rate)
        )
    return float(cb @ L)


def positional_cost_table(
    model: CostModel, max_position: int, ranges: Optional[DominatingRanges] = None
) -> np.ndarray:
    """``CB*(1..max_position)`` as one array (precompute for sweeps)."""
    if max_position < 1:
        raise ValueError("max_position must be >= 1")
    if ranges is None:
        ranges = DominatingRanges.from_cost_model(model)
    out = np.empty(max_position, dtype=np.float64)
    _fill_positional(ranges, out)
    return out


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


#: Per-DominatingRanges grown prefix arrays: ranges -> (CB* array, rate array).
#: Keyed weakly so fuzzer-generated throwaway instances don't pin memory;
#: instances shared through ``DominatingRanges.cached`` make this a
#: process-wide ``(rate menu, Re, Rt, n)`` memo.
_PREFIX_CACHE: "weakref.WeakKeyDictionary[DominatingRanges, tuple[np.ndarray, np.ndarray]]" = (
    weakref.WeakKeyDictionary()
)


def _prefix_arrays(ranges: DominatingRanges, n: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _PREFIX_CACHE.get(ranges)
    if cached is None or cached[0].shape[0] < n:
        # geometric growth so a climbing n (WBG batches of creeping size)
        # costs O(log) refills, not one per call
        cap = max(n, 2 * cached[0].shape[0] if cached is not None else n, 16)
        costs = np.empty(cap, dtype=np.float64)
        rates = np.empty(cap, dtype=np.float64)
        _fill_positional(ranges, costs, rates)
        costs.setflags(write=False)
        rates.setflags(write=False)
        cached = (costs, rates)
        _PREFIX_CACHE[ranges] = cached
    return cached


def positional_cost_prefix(ranges: DominatingRanges, n: int) -> np.ndarray:
    """Memoized read-only ``CB*(1..n)`` for a shared ranges instance."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _prefix_arrays(ranges, n)[0][:n]


def positional_rate_prefix(ranges: DominatingRanges, n: int) -> np.ndarray:
    """Memoized read-only optimal rate for backward positions ``1..n``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _prefix_arrays(ranges, n)[1][:n]


def backward_cost_matrix(model: CostModel, max_position: int) -> np.ndarray:
    """Batched ``CB(k, p)`` — shape ``(max_position, |P|)``.

    Row ``k-1`` holds the backward positional cost of every rate at
    position ``k``; ``min`` along axis 1 is ``CB*`` and ``argmin`` (with
    the paper's tie-to-higher-rate rule: reverse argmin) reproduces the
    brute-force rate scan, which is how the golden tests cross-check
    Algorithm 1 without a Python loop.
    """
    if max_position < 1:
        raise ValueError("max_position must be >= 1")
    table = model.table
    k = np.arange(1, max_position + 1, dtype=np.float64)[:, None]
    e = np.asarray(table.energy_per_cycle)
    t = np.asarray(table.time_per_cycle)
    return model.re * e + k * model.rt * t


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
    break on the core index — precisely the heap's ``(priority,
    tiebreak=j)`` comparison. Costs come from the memoized prefixes, so
    they are bit-identical to what the scalar loop feeds its heap.
    """
    n_cores = len(ranges_per_core)
    if n_cores < 1:
        raise ValueError("at least one core is required")
    if n < 1:
        raise ValueError("n must be >= 1")
    costs = np.concatenate([positional_cost_prefix(r, n) for r in ranges_per_core])
    cores = np.repeat(np.arange(n_cores, dtype=np.intp), n)
    order = np.lexsort((cores, costs))[:n]
    sel_cores = cores[order]
    slots = order - sel_cores * n  # slot index within the core, 0-based
    all_rates = np.stack([positional_rate_prefix(r, n) for r in ranges_per_core])
    return sel_cores, all_rates[sel_cores, slots]


def wbg_optimal_cost(
    ranges_per_core: Sequence[DominatingRanges],
    cycles: Sequence[float] | np.ndarray,
) -> float:
    """Vectorised ``Σ C*·L`` of the Workload Based Greedy assignment.

    The multi-core generalisation of :func:`optimal_cost_vectorized`:
    merge the per-core positional costs (same order as
    :func:`wbg_slot_sequence`), pair them with descending cycle counts,
    and reduce with one dot product.
    """
    L = np.sort(np.asarray(cycles, dtype=np.float64))[::-1]
    n = int(L.size)
    if n == 0:
        return 0.0
    if np.any(L <= 0):
        raise ValueError("cycle counts must be positive")
    costs = np.concatenate([positional_cost_prefix(r, n) for r in ranges_per_core])
    cores = np.repeat(np.arange(len(ranges_per_core), dtype=np.intp), n)
    order = np.lexsort((cores, costs))[:n]
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

    The LMC policy no longer calls this: over a handful of cores the
    scalar loop in
    :meth:`~repro.core.online_lmc.LeastMarginalCostPolicy.choose_core_interactive`
    is faster than one NumPy call (about 8 µs against 14 µs per
    four-core decision on a 2-vCPU Xeon). The kernel stays as a batch
    evaluator, tested bit-for-bit against that loop.
    """
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    if np.any(delayed_counts < 0):
        raise ValueError("waiting_tasks must be non-negative")
    own = re * cycles * pm_energy + rt * cycles * pm_time
    inflicted = rt * cycles * pm_time * delayed_counts
    return own + inflicted
