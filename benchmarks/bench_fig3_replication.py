"""Figure 3, replicated — margins with bootstrap confidence intervals.

The paper reports a single trace replay. Here the (scaled-down)
Figure 3 experiment is repeated across trace seeds and the LMC-vs-OLB
total-cost improvement is reported as mean with a 95 % bootstrap CI —
evidence that the headline is a property of the workload *shape*, not
of one lucky draw.

The per-seed grid is the registered ``fig3_replication`` sweep
(``repro sweep fig3_replication``).
"""

import pytest

from harness import emit
from repro.analysis.stats import bootstrap_ci
from repro.perf.sweep import FIG3_SEEDS, run_sweep


def test_fig3_margins_across_seeds(benchmark):
    run = benchmark.pedantic(
        lambda: run_sweep("fig3_replication"), rounds=1, iterations=1
    )
    assert [row["seed"] for row in run.rows] == list(FIG3_SEEDS)
    vs_olb = [row["vs_olb_total_pct"] for row in run.rows]
    vs_od = [row["vs_od_total_pct"] for row in run.rows]
    ci_olb = bootstrap_ci(vs_olb, seed=1)
    ci_od = bootstrap_ci(vs_od, seed=1)
    emit(
        f"LMC vs OLB total-cost margin over {len(FIG3_SEEDS)} seeds: "
        f"{ci_olb.mean:+.1f}% [{ci_olb.lo:+.1f}, {ci_olb.hi:+.1f}] (paper −17%)\n"
        f"LMC vs OD  total-cost margin over {len(FIG3_SEEDS)} seeds: "
        f"{ci_od.mean:+.1f}% [{ci_od.lo:+.1f}, {ci_od.hi:+.1f}] (paper −24%)"
    )
    # LMC wins on every seed, and the whole interval is negative
    assert all(m < 0 for m in vs_olb)
    assert all(m < 0 for m in vs_od)
    assert ci_olb.hi < 0
    assert ci_od.hi < 0
