"""Golden-value tests: Table II dominating ranges with exact breakpoints.

Algorithm 1's output for the paper's own platform (Table II) at the two
pricings used throughout the experiments is pinned here verbatim —
``(rate, lo, hi)`` per range plus the first positional costs. Any
change to the hull pass or the cost model that shifts a breakpoint or
a float fails these tests, so Algorithm 1 output can never change
silently.

The golden values are cross-checked in-test against the brute-force
per-position argmin (via the batched ``CB(k, p)`` matrix), so the pins
themselves are verified, not just trusted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dominating import DominatingRanges
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II


def backward_cost_matrix(model: CostModel, max_position: int) -> np.ndarray:
    """Batched ``CB(k, p)`` — shape ``(max_position, |P|)``.

    Row ``k-1`` holds the backward positional cost of every rate at
    position ``k``; ``min`` along axis 1 is ``CB*`` and ``argmin`` (with
    the paper's tie-to-higher-rate rule: reverse argmin) reproduces the
    brute-force rate scan without a Python loop.
    """
    table = model.table
    k = np.arange(1, max_position + 1, dtype=np.float64)[:, None]
    e = np.asarray(table.energy_per_cycle)
    t = np.asarray(table.time_per_cycle)
    return model.re * e + k * model.rt * t


# (re, rt) -> [(rate, lo, hi-exclusive-or-None), ...]
GOLDEN_RANGES = {
    (0.1, 0.4): [  # batch-mode pricing (Fig. 2)
        (1.6, 1, 2),
        (2.0, 2, 3),
        (2.4, 3, 5),
        (2.8, 5, 10),
        (3.0, 10, None),
    ],
    (0.4, 0.1): [  # online-mode pricing (Fig. 3)
        (1.6, 1, 28),
        (2.0, 28, 39),
        (2.4, 39, 67),
        (2.8, 67, 147),
        (3.0, 147, None),
    ],
}

# (re, rt) -> CB*(1..6), exact floats
GOLDEN_COSTS = {
    (0.1, 0.4): [0.5875, 0.8220000000000001, 1.004,
                 1.1720000000000002, 1.32, 1.4640000000000002],
    (0.4, 0.1): [1.4125, 1.475, 1.5375, 1.6, 1.6625, 1.725],
}


@pytest.mark.parametrize("pricing", sorted(GOLDEN_RANGES))
def test_table2_breakpoints_exact(pricing) -> None:
    model = CostModel(TABLE_II, *pricing)
    ranges = DominatingRanges.from_cost_model(model)
    assert [(r.rate, r.lo, r.hi) for r in ranges] == GOLDEN_RANGES[pricing]


@pytest.mark.parametrize("pricing", sorted(GOLDEN_RANGES))
def test_table2_positional_costs_exact(pricing) -> None:
    model = CostModel(TABLE_II, *pricing)
    ranges = DominatingRanges.from_cost_model(model)
    assert [ranges.cost(k) for k in range(1, 7)] == GOLDEN_COSTS[pricing]


@pytest.mark.parametrize("pricing", sorted(GOLDEN_RANGES))
def test_golden_values_match_bruteforce_argmin(pricing) -> None:
    """Verify the pins against the per-position argmin over CB(k, p).

    Ties break to the higher rate (the paper's convention), hence the
    reversed argmin over the batched cost matrix.
    """
    model = CostModel(TABLE_II, *pricing)
    max_k = 200
    matrix = backward_cost_matrix(model, max_k)
    reversed_idx = np.argmin(matrix[:, ::-1], axis=1)
    best_rates = [TABLE_II.rates[len(TABLE_II.rates) - 1 - int(i)] for i in reversed_idx]
    want = []
    for rate, lo, hi in GOLDEN_RANGES[pricing]:
        want.extend([rate] * ((hi if hi is not None else max_k + 1) - lo))
    assert best_rates == want[:max_k]
