"""The scheduler line-ups of the paper's two headline comparisons.

* :func:`batch_comparison` — Figure 2 (Section V-A3): WBG against
  Opportunistic Load Balancing and Power Saving, each plan run through
  :func:`~repro.simulator.batch_runner.run_batch`.
* :func:`online_comparison` — Figure 3 (Section V-B): LMC against
  Opportunistic Load Balancing and On-demand (round-robin placement with
  one :class:`~repro.governors.OnDemandGovernor` per core), each run
  through :func:`~repro.simulator.online_runner.run_online`.

Both run on the Table II platform and return the results keyed by label
in the order above, which is the row order of the printed tables.
Pricing, normalising and printing stay with each caller.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.governors import OnDemandGovernor
from repro.models.rates import TABLE_II
from repro.models.task import Task
from repro.schedulers.lmc import LMCOnlineScheduler
from repro.schedulers.olb import OLBOnlineScheduler, olb_plan
from repro.schedulers.ondemand_rr import OnDemandRoundRobinScheduler
from repro.schedulers.powersaving import power_saving_plan
from repro.schedulers.wbg import wbg_plan
from repro.simulator.batch_runner import BatchResult, run_batch
from repro.simulator.online_runner import OnlineResult, run_online


def batch_comparison(
    tasks: Iterable[Task], n_cores: int, re: float, rt: float
) -> dict[str, BatchResult]:
    """Figure 2: plan ``tasks`` with WBG, OLB and PS and run each plan.

    ``re``/``rt`` price WBG's plan only; the baselines ignore pricing.
    """
    tasks = list(tasks)
    plans = {
        "WBG": wbg_plan(tasks, TABLE_II, n_cores, re, rt),
        "OLB": olb_plan(tasks, TABLE_II, n_cores),
        "PS": power_saving_plan(tasks, TABLE_II, n_cores),
    }
    return {name: run_batch(plan, TABLE_II) for name, plan in plans.items()}


def online_comparison(
    trace: Sequence[Task], n_cores: int, re: float, rt: float
) -> dict[str, OnlineResult]:
    """Figure 3: replay ``trace`` under LMC, OLB and On-demand.

    ``re``/``rt`` price LMC's decisions only; the baselines ignore pricing.
    """
    return {
        "LMC": run_online(trace, LMCOnlineScheduler(TABLE_II, n_cores, re, rt), TABLE_II),
        "OLB": run_online(trace, OLBOnlineScheduler(TABLE_II, n_cores), TABLE_II),
        "OD": run_online(
            trace, OnDemandRoundRobinScheduler(n_cores), TABLE_II,
            governors=[OnDemandGovernor(TABLE_II) for _ in range(n_cores)],
        ),
    }


__all__ = ["batch_comparison", "online_comparison"]
