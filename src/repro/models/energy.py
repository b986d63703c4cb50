"""Continuous-rate energy model (Section II-C).

The discrete model — energy ``e_k = L_k · E(p)`` (Equation 1) and time
``t_k = L_k · T(p)`` (Equation 2) for a task run at rate ``p`` — takes
the per-cycle ``E(p)`` and ``T(p)`` from
:meth:`RateTable.energy <repro.models.rates.RateTable.energy>` and
:meth:`RateTable.time <repro.models.rates.RateTable.time>`; the
simulator's :class:`~repro.simulator.power.PowerMeter` books busy and
idle power over a run.

:class:`PowerLawEnergy` is the continuous-rate analytic model
(``power = c·p^α``) the related work (Yao et al.) and our YDS baseline
use; it also provides the closed-form optimal continuous rate for the
positional cost ``C(k, p)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.rates import RateTable


@dataclass(frozen=True)
class PowerLawEnergy:
    """Continuous-rate analytic model: busy power ``c·p^α`` (α typically 3).

    Per-cycle energy is ``E(p) = c·p^(α-1)`` and per-cycle time is
    ``T(p) = 1/p``. This is the model of Yao, Demers and Shenker and of
    the paper's NP-hardness construction ("dynamic energy proportional
    to the square of the frequency" per cycle for α = 3).
    """

    coefficient: float = 1.0
    alpha: float = 3.0

    def __post_init__(self) -> None:
        if self.coefficient <= 0:
            raise ValueError("coefficient must be positive")
        if self.alpha <= 1:
            raise ValueError("alpha must exceed 1 for E(p) to increase with p")

    def energy_per_cycle(self, rate: float) -> float:
        if rate <= 0:
            raise ValueError("rate must be positive")
        return self.coefficient * rate ** (self.alpha - 1.0)

    def time_per_cycle(self, rate: float) -> float:
        if rate <= 0:
            raise ValueError("rate must be positive")
        return 1.0 / rate

    def power(self, rate: float) -> float:
        return self.coefficient * rate**self.alpha

    def optimal_rate(self, re: float, rt: float, tasks_behind: int) -> float:
        """Closed-form continuous minimiser of the positional cost.

        Minimises ``C(p) = Re·E(p) + m·Rt·T(p)`` over continuous ``p``,
        where ``m = tasks_behind + 1`` counts the task itself plus the
        tasks it delays (forward position ``k`` in a queue of ``n`` has
        ``m = n - k + 1``). Setting the derivative to zero:

        ``Re·c·(α-1)·p^(α-2) = m·Rt / p²``  ⇒
        ``p = (m·Rt / (Re·c·(α-1)))^(1/α)``

        Used to bound the loss incurred by restricting to a discrete
        rate set (see ``benchmarks/bench_ablation_dominating.py``).
        """
        if re <= 0 or rt <= 0:
            raise ValueError("Re and Rt must be positive")
        if tasks_behind < 0:
            raise ValueError("tasks_behind must be non-negative")
        m = tasks_behind + 1
        return (m * rt / (re * self.coefficient * (self.alpha - 1.0))) ** (1.0 / self.alpha)

    def discretize(self, rates: list[float], name: str = "") -> RateTable:
        """Sample this continuous model at ``rates`` into a :class:`RateTable`."""
        return RateTable(
            rates,
            [self.energy_per_cycle(p) for p in rates],
            [self.time_per_cycle(p) for p in rates],
            name=name or f"power-law(a={self.alpha:g})",
        )

