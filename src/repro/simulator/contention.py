"""Shared-resource interference model.

Figure 1 of the paper shows the real machine costing ≈ 8 % more than
the simulation and names two causes:

1. **Co-run contention** — "even if workloads are running simultaneously
   on different cores, they can still affect each other, e.g., by
   competing for last-level cache or memory";
2. **Non-frequency-proportional phases** — "doubling the processing
   speed of a task does not guarantee exactly half of the execution
   time" (memory-bound cycles do not scale with core frequency).

:class:`ContentionModel` implements both: a task's effective cycle
throughput at rate ``p`` with ``m`` co-runners is

``throughput = (1 / T(p)) · 1 / (1 + slowdown_per_corunner·m)``

and a ``memory_bound_fraction`` of every task's cycles executes at the
reference (lowest) rate's per-cycle time regardless of ``p``. Energy
scales with the stretched time at the active rate's power, so both
effects raise measured energy and turnaround — the "Exp" bars.

The default coefficients are calibrated so the Fig. 1 replication lands
near the paper's ≈ 8 % gap on the SPEC batch (see
``benchmarks/bench_fig1_model_verification.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ContentionModel:
    """Interference coefficients for "real machine" simulation runs.

    Parameters
    ----------
    slowdown_per_corunner:
        Fractional throughput loss per concurrently busy *other* core
        (LLC/memory-bandwidth pressure). 0 disables co-run effects.
    memory_bound_fraction:
        Fraction of each task's cycles whose latency does not scale
        with core frequency (they progress at the reference rate's
        per-cycle time even when the core is clocked higher).
    switch_overhead_s:
        Fixed seconds lost whenever a core switches task or frequency
        (pipeline drain + DVFS transition latency).
    """

    slowdown_per_corunner: float = 0.0
    memory_bound_fraction: float = 0.0
    switch_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        # NaN fails every comparison, so a NaN overhead would read as no
        # overhead in SimCore.start; reject it here with inf
        if not 0.0 <= self.slowdown_per_corunner < math.inf:
            raise ValueError("slowdown_per_corunner must be finite and >= 0")
        if not (0.0 <= self.memory_bound_fraction < 1.0):
            raise ValueError("memory_bound_fraction must be in [0, 1)")
        if not 0.0 <= self.switch_overhead_s < math.inf:
            raise ValueError("switch_overhead_s must be finite and >= 0")

    @property
    def is_ideal(self) -> bool:
        return (
            self.slowdown_per_corunner == 0.0
            and self.memory_bound_fraction == 0.0
            and self.switch_overhead_s == 0.0
        )

    def effective_time_per_cycle(
        self, time_per_cycle: float, reference_time_per_cycle: float, co_runners: int
    ) -> float:
        """Seconds per cycle at a nominal ``T(p)`` with ``co_runners`` busy peers.

        ``reference_time_per_cycle`` is ``T(p_min)`` — the speed at
        which memory-bound cycles progress regardless of the core
        clock. Monotone in ``co_runners`` and never faster than the
        nominal ``T(p)``.
        """
        if co_runners < 0:
            raise ValueError("co_runners must be >= 0")
        if time_per_cycle <= 0 or reference_time_per_cycle <= 0:
            raise ValueError("per-cycle times must be positive")
        blended = (
            (1.0 - self.memory_bound_fraction) * time_per_cycle
            + self.memory_bound_fraction * max(time_per_cycle, reference_time_per_cycle)
        )
        return blended * (1.0 + self.slowdown_per_corunner * co_runners)

    def stretch_factor(
        self, time_per_cycle: float, reference_time_per_cycle: float, co_runners: int
    ) -> float:
        """Ratio of effective to nominal per-cycle time (>= 1)."""
        return (
            self.effective_time_per_cycle(time_per_cycle, reference_time_per_cycle, co_runners)
            / time_per_cycle
        )


#: The ideal (paper-model) machine: no interference at all.
NO_CONTENTION = ContentionModel()

#: Calibrated to land near the paper's ≈ 8 % Sim-vs-Exp cost gap on the
#: SPEC2006int batch with the Fig. 1 settings (two rates, four cores).
CALIBRATED_X86 = ContentionModel(
    slowdown_per_corunner=0.026,
    memory_bound_fraction=0.06,
    switch_overhead_s=0.010,
)
