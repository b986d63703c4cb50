"""Scheduling strategies: the paper's algorithms plus every baseline.

Batch-mode plan generators (produce :class:`~repro.models.cost.CoreSchedule`
lists consumed by :func:`repro.simulator.batch_runner.run_batch`):

* :func:`~repro.schedulers.wbg.wbg_plan` — Workload Based Greedy
  (the paper's optimal batch scheduler).
* :func:`~repro.schedulers.olb.olb_plan` — Opportunistic Load
  Balancing [12]: earliest-ready core, maximum frequency.
* :func:`~repro.schedulers.powersaving.power_saving_plan` — OLB
  assignment over the lower half of the frequency range.
* :func:`~repro.schedulers.round_robin.round_robin_plan` — naive
  round-robin at a fixed rate (sanity baseline).
* :func:`~repro.schedulers.yds.yds_schedule` — Yao-Demers-Shenker
  offline optimal for deadline workloads (related-work baseline).

Online-mode policies (implement the
:class:`~repro.simulator.online_runner.OnlinePolicy` protocol):

* :class:`~repro.schedulers.lmc.LMCOnlineScheduler` — Least Marginal Cost.
* :class:`~repro.schedulers.olb.OLBOnlineScheduler` — earliest-ready
  core at maximum frequency.
* :class:`~repro.schedulers.ondemand_rr.OnDemandRoundRobinScheduler` —
  round-robin placement, frequencies left to the ondemand governor.

The paper's two headline line-ups are defined once, in
:mod:`repro.schedulers.compare`:

* :func:`~repro.schedulers.compare.batch_comparison` — Figure 2
  (WBG / OLB / PS, each plan run through ``run_batch``).
* :func:`~repro.schedulers.compare.online_comparison` — Figure 3
  (LMC / OLB / On-demand, each run through ``run_online``).
"""

from repro.schedulers.wbg import wbg_plan
from repro.schedulers.olb import olb_plan, OLBOnlineScheduler
from repro.schedulers.powersaving import power_saving_plan
from repro.schedulers.round_robin import round_robin_plan
from repro.schedulers.lmc import LMCOnlineScheduler
from repro.schedulers.ondemand_rr import OnDemandRoundRobinScheduler
from repro.schedulers.yds import yds_schedule, YDSSchedule
from repro.schedulers.wbg_rerun import WBGRerunScheduler
from repro.schedulers.fixed_assignment import FixedAssignmentScheduler
from repro.schedulers.sjf import SJFMaxRateScheduler
from repro.schedulers.compare import batch_comparison, online_comparison

__all__ = [
    "wbg_plan",
    "olb_plan",
    "OLBOnlineScheduler",
    "power_saving_plan",
    "round_robin_plan",
    "LMCOnlineScheduler",
    "OnDemandRoundRobinScheduler",
    "yds_schedule",
    "YDSSchedule",
    "WBGRerunScheduler",
    "FixedAssignmentScheduler",
    "SJFMaxRateScheduler",
    "batch_comparison",
    "online_comparison",
]
