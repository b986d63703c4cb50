"""The paper's "Power Saving" baseline governor.

Section V-A3: "we limit the available frequencies in Power Saving to
the lower half of the CPU frequency range, i.e., 1.6, 2.0, and 2.4
GHz" while the Linux governor runs in on-demand mode over that
restricted menu — so a fully loaded core settles at the restricted
maximum (2.4 GHz on the i7-950 table).
"""

from __future__ import annotations

from repro.governors.ondemand import OnDemandGovernor
from repro.models.rates import RateTable


class PowerSavingGovernor(OnDemandGovernor):
    """On-demand over the lower half of the frequency range."""

    def __init__(self, table: RateTable) -> None:
        super().__init__(table)
        self._rates = table.lower_half().rates

    def available_rates(self) -> tuple[float, ...]:
        """The lower half of the core's frequency menu (Section V-A3)."""
        return self._rates
