"""The Linux ``ondemand`` governor as described in Section V.

"If a core's loading is higher than 85%, the frequency governor
increases the core's frequency to the largest available selection. On
the other hand, if the loading is lower than the threshold, the
frequency governor reduces the processing frequency by one level. The
loading of a core is measured every second."
"""

from __future__ import annotations

import bisect

from repro.governors.base import Governor

#: Load fraction at or above which the governor jumps to the maximum
#: available frequency (Section V-A3: 85 %).
THRESHOLD = 0.85


class OnDemandGovernor(Governor):
    """Threshold-jump-up / step-down governor over the core's rate table."""

    def on_sample(self, load: float, current_rate: float) -> float:
        """Jump to the maximum rate at/above :data:`THRESHOLD` load, else
        step down one level (Section V-A3's quoted behaviour)."""
        self.validate_load(load)
        rates = self.available_rates()
        if load >= THRESHOLD:
            return rates[-1]
        i = bisect.bisect_left(rates, current_rate)
        if i == len(rates) or rates[i] != current_rate:
            # current rate not in this governor's menu (e.g. it was just
            # installed): snap to the nearest not-higher rate, then step down.
            i = max(0, i - 1)
        return rates[max(0, i - 1)]
