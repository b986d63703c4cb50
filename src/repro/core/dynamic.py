"""Section IV-A — dynamic task insertion/deletion with incremental cost.

A single-core queue kept in the cost-optimal order (Theorem 3) is, seen
backwards, the descending-cycle-count sequence ``L^B_1 >= L^B_2 >= ...``
whose total cost is

``C = Σ_k (Re·L^B_k·E(p_k) + k·Rt·L^B_k·T(p_k))
    = Σ_{p ∈ P̂} ( Re·E(p)·ξ(D_p) + Rt·T(p)·γ(D_p) )``       (Equation 32)

with ``ξ``/``Δ``/``γ`` the range aggregates of Equations 28-30. The
paper maintains ``C`` under task arrival/completion by storing tasks in
a 1D range tree and keeping, **per dominating range** ``i``:

* ``a_i`` — the range's first backward position (fixed),
* ``b_i`` — the last position currently occupied (``a_i - 1`` if empty),
* ``α_i`` / ``β_i`` — pointers to the boundary tree nodes,
* ``x_i = ξ([a_i, b_i])`` and ``d_i = Δ([a_i, b_i])``.

An insert lands in exactly one range and shifts at most one element
across each later range boundary (the cascade loops of Algorithms 5
and 6), so maintenance costs ``O(|P̂| + log N)`` and the total cost
query is ``Θ(1)``.

Note on Algorithm 6 line 20: the paper's text reads
``d_i ← d_i − (k_B − a_i + 1)·*ptr + range_sum(...)``; the ``+`` is a
typesetting slip — deletion is the exact inverse of Algorithm 5 line 8
(which *adds* both terms), so both terms must be subtracted. The
property tests against :class:`NaiveCostIndex` confirm the corrected
sign.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Optional

from repro.core.dominating import DominatingRanges

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.tracer import Tracer
from repro.models.cost import CostModel
from repro.models.tolerances import AGG_ABS_TOL, REL_TOL
from repro.structures.rangetree import RangeTree, RangeTreeNode


#: A range's aggregates are refreshed from the tree once the largest sum
#: it held since its last exact recompute exceeds what remains by this
#: factor: subtracting dominant terms leaves ulp-of-the-peak residue
#: (catastrophic absorption), which is unbounded *relative to the
#: remainder*. Comparing against the peak, not against the single
#: departing value, also catches a chain of deletes that each stay
#: below the ratio (1e9 → 2e6 → 1e3 → 1).
_ABSORPTION_RATIO = 2.0 ** 16


def _check_cycles(cycles: float) -> None:
    if not 0 < cycles < math.inf:
        raise ValueError(f"cycles must be positive and finite, got {cycles!r}")


def _lost_boundary(i: int) -> RuntimeError:
    """The error for a non-empty range whose boundary pointer is ``None``."""
    return RuntimeError(f"dominating range {i} is non-empty but has no boundary node; "
                        "the index was corrupted")


class DynamicCostIndex:
    """Algorithms 4-6: a mutable optimal queue with ``Θ(1)`` total cost.

    The queue it models is always in the cost-optimal order; backward
    position ``k`` holds the ``k``-th largest task. :meth:`insert`
    corresponds to a task arrival, :meth:`delete` to a completion (or
    cancellation), and :attr:`total_cost` is Equation 32, maintained
    incrementally.

    ``tracer`` records ``dynamic.insert`` / ``dynamic.delete`` events
    for mutations and a ``dynamic.probe`` event per marginal-cost
    probe. ``label`` names this queue in those events (e.g. ``"core2"``).
    """

    def __init__(self, model: CostModel, ranges: Optional[DominatingRanges] = None,
                 seed: int = 0x5EED, tracer: "Optional[Tracer]" = None,
                 label: str = "") -> None:
        self.model = model
        self.ranges = ranges if ranges is not None else DominatingRanges.from_cost_model(model)
        self.tree = RangeTree(seed=seed)
        self._tracer = tracer
        self.label = label
        #: Deterministic ops counters (read by ``repro bench``).
        self.counters = {"inserts": 0, "deletes": 0, "probes": 0}

        # Algorithm 4: per-dominating-range bookkeeping.
        n_ranges = len(self.ranges)
        self._a = [r.lo for r in self.ranges.ranges]
        self._hi = [r.hi for r in self.ranges.ranges]  # exclusive; None = unbounded
        self._b = [a - 1 for a in self._a]
        self._alpha: list[Optional[RangeTreeNode]] = [None] * n_ranges
        self._beta: list[Optional[RangeTreeNode]] = [None] * n_ranges
        self._x = [0.0] * n_ranges
        self._d = [0.0] * n_ranges
        # high-water mark of _x since the range's last exact recompute
        self._peak = [0.0] * n_ranges
        # cached Re·E(p̂_i) and Rt·T(p̂_i) factors of Equation 32
        self._ree = [model.re * model.table.energy(r.rate) for r in self.ranges.ranges]
        self._rtt = [model.rt * model.table.time(r.rate) for r in self.ranges.ranges]
        # jump_i = CB*(hi_i) − CB*(hi_i − 1) − Rt·T(p̂_i): the extra cost of a
        # task shifting out of range i into range i+1 (marginal_insert_cost);
        # 0 for the unbounded last range.
        self._jump = [
            (self._ree[i + 1] - self._ree[i]) + hi * (self._rtt[i + 1] - self._rtt[i])
            for i, hi in enumerate(self._hi) if hi is not None
        ] + [0.0]
        self._cost = 0.0

    # -- queries -------------------------------------------------------------------
    def __len__(self) -> int:
        return self.tree.size

    @property
    def total_cost(self) -> float:
        """Equation 32, maintained incrementally. ``Θ(1)``."""
        return self._cost

    def rate_of(self, node: RangeTreeNode) -> float:
        """The rate the task at ``node`` should currently execute/queue at.

        One rank query: ``O(log N)``, and ``Θ(1)`` for the queue head
        (the tree's last node, the one ``pop_head`` takes). This is the
        per-task frequency adjustment LMC applies after every queue change.
        """
        return self.ranges.rate_for(self.tree.rank(node))

    def backward_position(self, node: RangeTreeNode) -> int:
        return self.tree.rank(node)

    def execution_order(self) -> list[RangeTreeNode]:
        """Nodes in *forward* execution order (shortest first)."""
        return list(self.tree)[::-1]

    def head(self) -> Optional[RangeTreeNode]:
        """The node that should execute first (smallest cycle count)."""
        return self.tree.max_node()

    def marginal_insert_cost(self, cycles: float) -> float:
        """Cost increase if a task of ``cycles`` were inserted, in closed
        form and without mutating the index. ``O(|P̂| + log N)``.

        LMC's core-selection step calls this once per core per
        non-interactive arrival. The new task would land at backward
        position ``kb = count_ge(L) + 1`` (after its equals), and every
        queued task at ``k >= kb`` would shift to ``k + 1``. Inside
        range ``i``, ``CB*(k+1) − CB*(k)`` is the constant ``Rt·T(p̂_i)``;
        the task that crosses out of a full range also gains
        ``jump_i`` (see ``__init__``). Hence

        ``ΔC = CB*(kb)·L + Rt·T(p̂_i)·ξ([kb, b_i]) + Σ_{j>i} Rt·T(p̂_j)·x_j
        + Σ_{full j >= i, b_j >= kb} jump_j·L^B_{b_j}``

        — one value descent, one range sum and a loop over the
        maintained per-range aggregates.
        """
        _check_cycles(cycles)
        self.counters["probes"] += 1
        kb = self.tree.count_ge(cycles) + 1
        i = self.ranges.range_index_for(kb)
        a, b, hi, rtt = self._a, self._b, self._hi, self._rtt
        marginal = ((self._ree[i] + kb * rtt[i]) * cycles
                    + rtt[i] * self.tree.range_sum(kb, b[i]))
        for j in range(i, len(a)):
            if b[j] < a[j]:  # ranges fill in order: the rest are empty too
                break
            if j > i:
                marginal += rtt[j] * self._x[j]
            if hi[j] is not None and b[j] == hi[j] - 1 and b[j] >= kb:
                beta = self._beta[j]
                if beta is None:
                    raise _lost_boundary(j)
                marginal += self._jump[j] * beta.value
        if self._tracer is not None:
            data: dict[str, Any] = {"cycles": cycles, "marginal": marginal}
            if self.label:
                data["queue"] = self.label
            self._tracer.emit("dynamic.probe", data)
        return marginal

    def _trace_mutation(self, tracer: "Tracer", kind: str, cycles: float, kb: int,
                        payload: Any, data: dict) -> None:
        if self.label:
            data["queue"] = self.label
        task_id = getattr(payload, "task_id", None)
        if task_id is not None:
            data["task_id"] = task_id
            data["task"] = getattr(payload, "name", "")
        data.update({"cycles": cycles, "position": kb, "total_cost": self._cost})
        tracer.emit(kind, data)

    # -- Algorithm 5: insert ----------------------------------------------------------
    def insert(self, cycles: float, payload: Any = None) -> RangeTreeNode:
        """Insert a task; returns its node handle. ``O(|P̂| + log N)``."""
        _check_cycles(cycles)
        self.counters["inserts"] += 1
        ptr = self.tree.insert(cycles, payload)
        kb = self.tree.rank(ptr)
        i = self.ranges.range_index_for(kb)

        if kb == self._a[i]:
            self._alpha[i] = ptr
        if kb > self._b[i]:
            self._beta[i] = ptr
        self._b[i] += 1
        self._x[i] += cycles
        if self._x[i] > self._peak[i]:
            self._peak[i] = self._x[i]
        # the new node contributes local position (kb - a_i + 1); everything
        # after it inside the range shifts one local position later.
        self._d[i] += (kb - self._a[i] + 1) * cycles + self.tree.range_sum(kb + 1, self._b[i])

        # cascade: while range i overflows, its last element moves to range i+1
        while self._hi[i] is not None and self._b[i] > self._hi[i] - 1:
            moved = self._beta[i]
            if moved is None:
                raise _lost_boundary(i)
            self._d[i] -= (self._b[i] - self._a[i] + 1) * moved.value
            self._x[i] -= moved.value
            self._b[i] -= 1
            self._beta[i] = moved.prev
            if self._b[i] < self._a[i]:
                self._alpha[i] = None
                self._beta[i] = None
                self._x[i] = 0.0  # snap float residue: the range is empty
                self._d[i] = 0.0
                self._peak[i] = 0.0
            i += 1
            self._alpha[i] = moved
            if self._a[i] > self._b[i]:
                self._beta[i] = moved
            self._b[i] += 1
            self._x[i] += moved.value
            if self._x[i] > self._peak[i]:
                self._peak[i] = self._x[i]
            # moved enters at local position 1; prior occupants shift +1 each:
            # Δ gains x_i(old) + moved.value = x_i(new).
            self._d[i] += self._x[i]

        self._recompute_cost()
        if self._tracer is not None:
            self._trace_mutation(
                self._tracer, "dynamic.insert", cycles, kb, payload,
                {"rate": self.ranges.rate_for(kb)},
            )
        return ptr

    # -- Algorithm 6: delete ----------------------------------------------------------
    def delete(self, ptr: RangeTreeNode) -> None:
        """Remove a task by handle. ``O(|P̂| + log N)``."""
        self.counters["deletes"] += 1
        kb = self.tree.rank(ptr)
        deleted_cycles, deleted_payload = ptr.value, ptr.payload
        # i ← last non-empty range
        i = max(j for j in range(len(self._a)) if self._a[j] <= self._b[j])
        refresh: list[int] = []

        # cascade: every non-empty range past kb's range loses its first
        # element across the boundary into the previous range.
        while self._a[i] > kb:
            tptr = self._alpha[i]
            if tptr is None:
                raise _lost_boundary(i)
            self._d[i] -= self._x[i]
            self._x[i] -= tptr.value
            self._b[i] -= 1
            if self._a[i] <= self._b[i]:
                self._alpha[i] = tptr.next
                if self._peak[i] > _ABSORPTION_RATIO * self._x[i]:
                    refresh.append(i)
            else:
                self._alpha[i] = None
                self._beta[i] = None
                self._x[i] = 0.0  # snap float residue: the range is empty
                self._d[i] = 0.0
                self._peak[i] = 0.0
            i -= 1
            self._beta[i] = tptr
            if self._a[i] > self._b[i]:
                self._alpha[i] = tptr
            self._b[i] += 1
            self._x[i] += tptr.value
            if self._x[i] > self._peak[i]:
                self._peak[i] = self._x[i]
            self._d[i] += (self._b[i] - self._a[i] + 1) * tptr.value

        # remove ptr from range i (it still occupies rank kb in the tree).
        # Inverse of Algorithm 5 line 8 — both terms subtracted (see module
        # docstring on the paper's sign slip).
        self._d[i] -= (kb - self._a[i] + 1) * ptr.value + self.tree.range_sum(kb + 1, self._b[i])
        self._x[i] -= ptr.value
        self._b[i] -= 1
        if self._a[i] > self._b[i]:
            self._alpha[i] = None
            self._beta[i] = None
            self._x[i] = 0.0  # snap float residue: the range is empty
            self._d[i] = 0.0
            self._peak[i] = 0.0
        else:
            if self._alpha[i] is ptr:
                self._alpha[i] = ptr.next
            elif self._beta[i] is ptr:
                self._beta[i] = ptr.prev
            if self._peak[i] > _ABSORPTION_RATIO * self._x[i]:
                refresh.append(i)

        self.tree.delete(ptr)
        # Re-derive aggregates wherever the range's peak sum dominates
        # what remains: the incremental subtractions leave ulp-of-the-peak
        # residue (catastrophic absorption), unbounded relative to the
        # small remainder. The treap recomputes subtree sums along the
        # delete path, so these queries are absorption-free. O(log N)
        # each, and only dominant drops trigger them.
        for j in refresh:
            if self._a[j] <= self._b[j]:
                self._x[j] = self.tree.range_sum(self._a[j], self._b[j])
                self._d[j] = self.tree.range_delta(self._a[j], self._b[j])
                self._peak[j] = self._x[j]
        self._recompute_cost()
        if self._tracer is not None:
            self._trace_mutation(self._tracer, "dynamic.delete", deleted_cycles, kb,
                                 deleted_payload, {})

    # -- internals ---------------------------------------------------------------------
    def _recompute_cost(self) -> None:
        """Equation 32 from the per-range aggregates. ``Θ(|P̂|)``."""
        c = 0.0
        for i in range(len(self._a)):
            if self._x[i] == 0.0:  # repro-lint: disable=RP004 -- empty-range sum is exactly 0.0 by construction
                continue
            gamma = self._d[i] + (self._a[i] - 1) * self._x[i]
            c += self._ree[i] * self._x[i] + self._rtt[i] * gamma
        self._cost = c

    def check_invariants(self) -> None:
        """Cross-check every aggregate against the tree. ``O(N + |P̂| log N)``; tests only."""
        self.tree.check_invariants()
        n = len(self.tree)
        for i in range(len(self._a)):
            a, b = self._a[i], self._b[i]
            hi = self._hi[i]
            expected_b = min(hi - 1, n) if hi is not None else n
            expected_b = max(expected_b, a - 1)
            assert b == expected_b, f"range {i}: b={b} expected {expected_b}"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
            if a > b:
                assert self._alpha[i] is None and self._beta[i] is None  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
                assert self._x[i] == 0.0  # repro-lint: disable=RP004,RP008 -- exact 0.0 by construction; invariant audit
                assert abs(self._d[i]) < AGG_ABS_TOL  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
                continue
            assert self._alpha[i] is not None and self._beta[i] is not None  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
            assert self.tree.rank(self._alpha[i]) == a, f"range {i}: alpha rank mismatch"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
            assert self.tree.rank(self._beta[i]) == b, f"range {i}: beta rank mismatch"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
            xs = self.tree.range_sum(a, b)
            ds = self.tree.range_delta(a, b)
            assert math.isclose(self._x[i], xs, rel_tol=REL_TOL, abs_tol=AGG_ABS_TOL), f"range {i}: x"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
            assert math.isclose(self._d[i], ds, rel_tol=REL_TOL, abs_tol=AGG_ABS_TOL), f"range {i}: d"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
        naive = sum(
            self.ranges.cost(kb) * node.value for kb, node in enumerate(self.tree, start=1)
        )
        assert math.isclose(self._cost, naive, rel_tol=REL_TOL, abs_tol=AGG_ABS_TOL), "total cost drifted"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError


class NaiveCostIndex:
    """The ``Θ(N)``-per-operation specification DynamicCostIndex must match.

    Keeps a plain sorted list and recomputes ``C = Σ CB*(k)·L^B_k``
    from scratch after every mutation. Used as ground truth in tests
    and as the baseline in ``bench_ablation_dynamic``.
    """

    def __init__(self, model: CostModel, ranges: Optional[DominatingRanges] = None) -> None:
        self.model = model
        self.ranges = ranges if ranges is not None else DominatingRanges.from_cost_model(model)
        self._values: list[float] = []  # kept descending

    def __len__(self) -> int:
        return len(self._values)

    def insert(self, cycles: float, payload: Any = None) -> float:
        _check_cycles(cycles)
        # descending insertion point (stable: equal values go after)
        lo, hi = 0, len(self._values)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._values[mid] >= cycles:
                lo = mid + 1
            else:
                hi = mid
        self._values.insert(lo, cycles)
        return cycles

    def delete(self, cycles: float) -> None:
        self._values.remove(cycles)

    def marginal_insert_cost(self, cycles: float) -> float:
        before = self.total_cost
        self.insert(cycles)
        after = self.total_cost
        self.delete(cycles)
        return after - before

    @property
    def total_cost(self) -> float:
        return sum(
            self.ranges.cost(kb) * v for kb, v in enumerate(self._values, start=1)
        )
