"""Table II — regenerate the batch-mode rate parameters.

Prints the ``p_k`` / ``E(p_k)`` / ``T(p_k)`` rows and benchmarks the
dominating-position-range precomputation those parameters feed
(Algorithm 1 under the paper's batch pricing).
"""

import pytest

from harness import RE_BATCH, RT_BATCH, emit
from repro.analysis.reporting import format_table, render_table_ii
from repro.core.dominating import DominatingRanges
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II


def test_table2_rows(benchmark):
    model = CostModel(TABLE_II, RE_BATCH, RT_BATCH)
    ranges = benchmark(DominatingRanges.from_cost_model, model)
    emit(render_table_ii(TABLE_II))
    emit(
        format_table(
            ["Rate (GHz)", "Dominating backward positions"],
            [
                (f"{r.rate:g}", f"[{r.lo}, {'∞' if r.hi is None else r.hi})")
                for r in ranges
            ],
            title=f"Derived dominating ranges at Re={RE_BATCH}, Rt={RT_BATCH}",
        )
    )
    assert TABLE_II.energy_per_cycle == (3.375, 4.22, 5.0, 6.0, 7.1)
    assert TABLE_II.time_per_cycle == (0.625, 0.5, 0.42, 0.36, 0.33)
    # all five rates are effective under the batch pricing
    assert ranges.effective_rates == list(TABLE_II.rates)
