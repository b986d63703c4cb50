"""Algorithm 1 — dominating position ranges in ``Θ(|P|)``.

For backward position ``k`` the best rate minimises the linear function

``f_i(k) = Re·E(p_i) + Rt·T(p_i)·k``

so finding every position's best rate is a lower-envelope problem over
``|P|`` lines. The paper maps each line to the dual point
``(x, y) = (Rt·T(p_i), Re·E(p_i))`` and takes the lower convex hull with
a single stack pass (a Graham scan over points already sorted by
descending ``x``, since ``T`` strictly decreases in ``p``). Rates that
survive form the effective set ``P̂``; consecutive hull points meet at a
crossover position, and each surviving rate *dominates* the contiguous
range of positions between its two crossovers:

``D_{p̂_1} = [1, k_1),  D_{p̂_2} = [k_1, k_2),  ...,  D_{p̂_|P̂|} = [k_{|P̂|-1}, ∞)``

Low rates dominate small backward positions (tasks near the end of the
queue delay few others, so energy dominates); high rates dominate large
backward positions. Ties at an exact integer crossover go to the
**higher** rate, as the paper specifies.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from repro.models.cost import CostModel
from repro.models.tolerances import TIE_EPS as _TIE_EPS

@dataclass(frozen=True)
class DominatingRange:
    """``D_p`` — the backward positions where rate ``p`` is optimal.

    The range is ``[lo, hi)`` with ``hi = None`` meaning unbounded
    (the highest effective rate dominates every sufficiently early
    position).
    """

    rate: float
    lo: int
    hi: Optional[int]

    def __contains__(self, kb: int) -> bool:
        return kb >= self.lo and (self.hi is None or kb < self.hi)

    def __len__(self) -> int:
        if self.hi is None:
            raise ValueError("unbounded dominating range has no length")
        return self.hi - self.lo

    def clipped(self, n: int) -> range:
        """The positions of this range that exist in a queue of ``n`` tasks."""
        hi = n + 1 if self.hi is None else min(self.hi, n + 1)
        return range(self.lo, max(self.lo, hi))


class DominatingRanges:
    """The full partition ``{D_p : p ∈ P̂}`` plus ``O(log |P̂|)`` lookups.

    Construct via :meth:`from_cost_model`. Because the minimum
    positional cost ``CB*(k)`` is independent of the workload
    (Lemma 1), one instance serves every scheduling call that shares
    the same ``(P, E, T, Re, Rt)``.
    """

    def __init__(self, model: CostModel, ranges: Sequence[DominatingRange]) -> None:
        if not ranges:
            raise ValueError("at least one dominating range is required")
        if ranges[0].lo != 1:
            raise ValueError("first dominating range must start at position 1")
        for prev, cur in zip(ranges, ranges[1:]):
            if prev.hi != cur.lo:
                raise ValueError("dominating ranges must tile the naturals without gaps")
            if prev.rate >= cur.rate:
                raise ValueError("dominating ranges must be in ascending rate order")
        if ranges[-1].hi is not None:
            raise ValueError("last dominating range must be unbounded")
        self.model = model
        self.ranges: tuple[DominatingRange, ...] = tuple(ranges)
        self._los = [r.lo for r in self.ranges]

    # -- construction: Algorithm 1 ------------------------------------------------
    @classmethod
    def from_cost_model(cls, model: CostModel) -> "DominatingRanges":
        """Run Algorithm 1. ``Θ(|P|)``.

        The stack pass keeps only rates on the lower convex hull of the
        dual points (descending ``x`` order, so ascending rate order);
        the boundary pass then converts consecutive hull points into
        integer crossover positions.
        """
        table = model.table
        # dual points in ascending rate order = descending x = Rt·T(p)
        points = [
            (model.rt * table.time_per_cycle[i], model.re * table.energy_per_cycle[i], table.rates[i])
            for i in range(len(table))
        ]

        def cross(
            t0: tuple[float, float, float],
            t1: tuple[float, float, float],
            t2: tuple[float, float, float],
        ) -> float:
            return (t1[0] - t0[0]) * (t2[1] - t0[1]) - (t2[0] - t0[0]) * (t1[1] - t0[1])

        stack: list[tuple[float, float, float]] = []
        for t in points:
            while len(stack) >= 2 and cross(stack[-2], stack[-1], t) >= 0:
                stack.pop()
            stack.append(t)

        ranges: list[DominatingRange] = []
        lb = 1
        for s_i, s_next in zip(stack, stack[1:]):
            # crossover: s_i.y + s_i.x·k = s_next.y + s_next.x·k.  Near-integer
            # crossovers are re-resolved by comparing the two rates' costs
            # directly, with the exact float expression the brute-force
            # argmin uses, so the tie rule cannot be flipped by the window.
            def wins_at(k: int, lo: float = s_i[2], hi: float = s_next[2]) -> bool:
                return model.backward_position_cost(k, hi) <= model.backward_position_cost(k, lo)

            nlb = _integer_crossover(s_next[1] - s_i[1], s_i[0] - s_next[0], wins_at=wins_at)
            if lb < nlb:
                ranges.append(DominatingRange(rate=s_i[2], lo=lb, hi=nlb))
            # else: this hull rate's integer range is empty (crossover <= lb);
            # it never dominates any natural position and is dropped from P̂.
            lb = max(lb, nlb)
        ranges.append(DominatingRange(rate=stack[-1][2], lo=lb, hi=None))
        return cls(model, ranges)

    # -- queries -------------------------------------------------------------------
    @property
    def effective_rates(self) -> list[float]:
        """``P̂`` — the rates with a non-empty dominating range, ascending."""
        return [r.rate for r in self.ranges]

    def range_index_for(self, kb: int) -> int:
        """Index into :attr:`ranges` of the range containing backward position ``kb``."""
        if kb < 1:
            raise ValueError(f"backward position must be >= 1, got {kb}")
        return bisect.bisect_right(self._los, kb) - 1

    def range_for(self, kb: int) -> DominatingRange:
        return self.ranges[self.range_index_for(kb)]

    def rate_for(self, kb: int) -> float:
        """The optimal rate for backward position ``kb`` (tie → higher rate)."""
        return self.range_for(kb).rate

    def cost(self, kb: int) -> float:
        """``CB*(kb)`` — minimum positional cost at backward position ``kb``."""
        return self.model.backward_position_cost(kb, self.rate_for(kb))

    def rate_and_cost(self, kb: int) -> tuple[float, float]:
        rate = self.rate_for(kb)
        return rate, self.model.backward_position_cost(kb, rate)

    def __iter__(self) -> Iterator[DominatingRange]:
        return iter(self.ranges)

    def __len__(self) -> int:
        return len(self.ranges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{r.rate:g}:[{r.lo},{'inf' if r.hi is None else r.hi})" for r in self.ranges
        )
        return f"DominatingRanges({parts})"


def _integer_crossover(
    dy: float, dx: float, wins_at: Optional[Callable[[int], bool]] = None
) -> int:
    """First integer position where the faster line wins (ties → faster).

    The real crossover is ``k* = dy / dx`` (``dx > 0`` because ``T``
    strictly decreases). The faster rate owns every integer
    ``k >= k*`` — including an exact-integer ``k*``, per the tie rule —
    so the slower rate's range ends at ``ceil(k*)``.

    A crossover landing *near* an integer needs care: float noise can
    push an exact tie off the integer, and — the converse failure — a
    purely relative window ``|k* − round(k*)| <= eps·k*`` widens with
    ``k*`` until it swallows genuinely fractional crossovers (at
    ``k* ≈ 1e5`` a fractional part of ``1e-4`` would be misread as a
    tie, handing the position to the faster rate when the slower one is
    strictly cheaper). So the window is only a *trigger*: within it the
    caller-supplied ``wins_at(k)`` predicate re-resolves the boundary by
    comparing the two rates' costs at the candidate integer directly,
    which reproduces the brute-force argmin's ``<=`` tie rule exactly.
    Without a predicate (bare helper use), the window keeps its old
    tie-goes-to-faster reading.
    """
    if dx <= 0:
        raise ValueError("crossover denominator must be positive")
    ratio = dy / dx
    nearest = round(ratio)
    if abs(ratio - nearest) <= _TIE_EPS * max(1.0, abs(ratio)):
        k = max(1, int(nearest))
        if wins_at is not None and not wins_at(k):
            # true crossover lies strictly above k: the faster rate does
            # not own position k after all (the window was too generous).
            return k + 1
        return k
    return max(1, math.ceil(ratio))


def brute_force_ranges(model: CostModel, max_position: int) -> list[float]:
    """Per-position argmin scan — the ``O(n·|P|)`` specification.

    Returns the optimal rate for each backward position ``1..max_position``
    (ties to the higher rate). Algorithm 1 must agree everywhere; the
    property tests and ``bench_ablation_dominating`` compare the two.
    """
    return [model.best_rate_backward(kb)[0] for kb in range(1, max_position + 1)]
