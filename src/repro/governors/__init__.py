"""CPU frequency governor emulation (Section V baselines).

The paper's baselines delegate frequency selection to the Linux
``cpufreq`` governors, so we re-implement the behaviours it describes:

* :class:`~repro.governors.ondemand.OnDemandGovernor` — samples each
  core's load every second; load ≥ 85 % → jump to the highest available
  frequency, otherwise step down one level.
* :class:`~repro.governors.powersave.PowerSavingGovernor` — the paper's
  "Power Saving" mode: on-demand behaviour over a rate table restricted
  to the lower half of the CPU's frequency range.
"""

from repro.governors.base import Governor
from repro.governors.ondemand import OnDemandGovernor
from repro.governors.powersave import PowerSavingGovernor

__all__ = [
    "Governor",
    "OnDemandGovernor",
    "PowerSavingGovernor",
]
