"""Processing-rate model (Section II-B) and the paper's rate tables.

A core exposes a non-empty set of discrete processing rates
``P = {p_1 < p_2 < ... < p_|P|}``. Executing one cycle at rate ``p``
takes ``T(p)`` seconds and ``E(p)`` joules, with

* ``0 < E(p_1) < E(p_2) < ...``  (faster costs more energy per cycle), and
* ``T(p_1) > T(p_2) > ... > 0``  (faster takes less time per cycle).

The paper's experimental parameters (Table II, Intel i7-950, five
userspace frequencies) ship as :data:`TABLE_II`; the two CPUs named in
Section II-B ship as :data:`I7_950` (all 12 steps, power-law energy) and
:data:`EXYNOS_4412`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence


@dataclass(frozen=True)
class RateTable:
    """A validated, immutable table of ``(p, E(p), T(p))`` triples.

    Rates are stored sorted ascending. ``E`` is strictly increasing and
    ``T`` strictly decreasing in the rate, as the model requires; the
    constructor enforces both monotonicity properties and rejects any
    non-finite rate, ``E(p)`` or ``T(p)``.

    Parameters
    ----------
    rates:
        The discrete processing rates ``p_i``, in any order, all > 0.
    energy_per_cycle:
        ``E(p_i)`` aligned with ``rates`` (joules per cycle).
    time_per_cycle:
        ``T(p_i)`` aligned with ``rates`` (seconds per cycle). If
        omitted, defaults to ``1 / p_i`` — the natural reading of a rate
        in cycles/second, and the choice the paper makes in Section V.
    name:
        Optional label for reporting.
    """

    rates: tuple[float, ...]
    energy_per_cycle: tuple[float, ...]
    time_per_cycle: tuple[float, ...]
    name: str = ""
    _index: dict[float, int] = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        rates: Sequence[float],
        energy_per_cycle: Sequence[float],
        time_per_cycle: Sequence[float] | None = None,
        name: str = "",
    ) -> None:
        if len(rates) == 0:
            raise ValueError("rate table must be non-empty")
        if len(rates) != len(energy_per_cycle):
            raise ValueError("rates and energy_per_cycle must align")
        if any(p <= 0 for p in rates):
            raise ValueError("all rates must be positive")
        if time_per_cycle is None:
            time_per_cycle = [1.0 / p for p in rates]
        if len(rates) != len(time_per_cycle):
            raise ValueError("rates and time_per_cycle must align")
        for label, values in (("rates", rates), ("E(p)", energy_per_cycle),
                              ("T(p)", time_per_cycle)):
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{label} must be finite, got {list(values)!r}")

        order = sorted(range(len(rates)), key=lambda i: rates[i])
        p = tuple(float(rates[i]) for i in order)
        e = tuple(float(energy_per_cycle[i]) for i in order)
        t = tuple(float(time_per_cycle[i]) for i in order)

        if any(x <= 0 for x in p):
            raise ValueError("all rates must be positive")
        for i in range(1, len(p)):
            if p[i] == p[i - 1]:
                raise ValueError(f"duplicate rate {p[i]!r}")
            if e[i] <= e[i - 1]:
                raise ValueError(
                    f"E(p) must be strictly increasing: E({p[i-1]})={e[i-1]} vs E({p[i]})={e[i]}"
                )
            if t[i] >= t[i - 1]:
                raise ValueError(
                    f"T(p) must be strictly decreasing: T({p[i-1]})={t[i-1]} vs T({p[i]})={t[i]}"
                )
        if e[0] <= 0 or t[-1] <= 0:
            raise ValueError("E(p) and T(p) must be positive")

        object.__setattr__(self, "rates", p)
        object.__setattr__(self, "energy_per_cycle", e)
        object.__setattr__(self, "time_per_cycle", t)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_index", {rate: i for i, rate in enumerate(p)})

    # -- lookups --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rates)

    def index_of(self, rate: float) -> int:
        """Index of ``rate`` in the sorted table; raises if absent."""
        try:
            return self._index[rate]
        except KeyError:
            raise KeyError(f"rate {rate!r} not in table {self.rates}") from None

    def __contains__(self, rate: float) -> bool:
        try:
            self.index_of(rate)
        except KeyError:
            return False
        return True

    def energy(self, rate: float) -> float:
        """``E(p)`` — joules per cycle at ``rate``."""
        return self.energy_per_cycle[self.index_of(rate)]

    def time(self, rate: float) -> float:
        """``T(p)`` — seconds per cycle at ``rate``."""
        return self.time_per_cycle[self.index_of(rate)]

    def power(self, rate: float) -> float:
        """Busy power in watts at ``rate``: ``E(p) / T(p)`` (J/cycle ÷ s/cycle)."""
        i = self.index_of(rate)
        return self.energy_per_cycle[i] / self.time_per_cycle[i]

    @property
    def min_rate(self) -> float:
        return self.rates[0]

    @property
    def max_rate(self) -> float:
        return self.rates[-1]

    def step_down(self, rate: float) -> float:
        """The next lower rate, or ``rate`` itself if already at the bottom.

        This is the "reduce the processing frequency by one level" move
        the paper's On-demand baseline performs when load drops below
        its threshold.
        """
        i = self.index_of(rate)
        return self.rates[max(0, i - 1)]

    def step_up(self, rate: float) -> float:
        """The next higher rate, or ``rate`` itself if already at the top."""
        i = self.index_of(rate)
        return self.rates[min(len(self.rates) - 1, i + 1)]

    # -- derived tables -------------------------------------------------------
    def restrict(self, predicate: Callable[[float], bool], name: str = "") -> "RateTable":
        """A sub-table keeping only rates for which ``predicate`` holds.

        Used to build the Power Saving baseline, which limits the
        available frequencies to the lower half of the CPU range.
        """
        keep = [i for i, p in enumerate(self.rates) if predicate(p)]
        if not keep:
            raise ValueError("restriction would leave an empty rate table")
        return RateTable(
            [self.rates[i] for i in keep],
            [self.energy_per_cycle[i] for i in keep],
            [self.time_per_cycle[i] for i in keep],
            name=name or f"{self.name}[restricted]",
        )

    def lower_half(self) -> "RateTable":
        """The lower half of the frequency choices (Power Saving mode).

        Keeps the lowest ``⌈|P|/2⌉`` rates: on the paper's Table II
        {1.6, 2.0, 2.4, 2.8, 3.0} that is {1.6, 2.0, 2.4} GHz, matching
        Section V-A3's Power Saving configuration.
        """
        keep = set(self.rates[: (len(self.rates) + 1) // 2])
        return self.restrict(lambda p: p in keep, name=f"{self.name}[lower-half]")

    def items(self) -> list[tuple[float, float, float]]:
        """``(p, E(p), T(p))`` triples in ascending rate order."""
        return list(zip(self.rates, self.energy_per_cycle, self.time_per_cycle))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return f"RateTable({label} rates={self.rates})"


def rate_table_from_power_law(
    rates: Sequence[float],
    dynamic_coefficient: float = 1.0,
    static_power: float = 0.0,
    name: str = "",
) -> RateTable:
    """Build a :class:`RateTable` from the classical cubic power model.

    Dynamic power is ``c·p³`` (voltage tracks frequency, so
    ``P_dyn ∝ V²·f ∝ f³``) and a constant ``static_power`` is burned
    whenever the core is busy. Energy per cycle is then

    ``E(p) = (c·p³ + P_static) / p  =  c·p² + P_static / p``

    — the "dynamic energy proportional to the square of the frequency"
    assumption the paper's NP-completeness proof cites [9].
    """
    if dynamic_coefficient <= 0:
        raise ValueError("dynamic_coefficient must be positive")
    if static_power < 0:
        raise ValueError("static_power must be non-negative")
    energies = [dynamic_coefficient * p * p + static_power / p for p in rates]
    return RateTable(rates, energies, name=name)


def per_core_tables(tables: RateTable | Sequence[RateTable], n_cores: int) -> list[RateTable]:
    """One rate table per core: a single :class:`RateTable` serves all
    ``n_cores`` (homogeneous), a sequence must hold exactly one per core
    (heterogeneous) or ``ValueError``."""
    if isinstance(tables, RateTable):
        return [tables] * n_cores
    table_list = list(tables)
    if len(table_list) != n_cores:
        raise ValueError(
            f"need one rate table per core: got {len(table_list)} for {n_cores} cores"
        )
    return table_list


#: The paper's Table II — the five frequencies the batch-mode experiments
#: use on the Intel i7-950, with measured per-cycle energy (the paper
#: reports E in consistent units; T(p) = 1/p with p in GHz, so one "cycle"
#: here is 10⁹ hardware cycles and E is joules per 10⁹ cycles).
TABLE_II = RateTable(
    rates=[1.6, 2.0, 2.4, 2.8, 3.0],
    energy_per_cycle=[3.375, 4.22, 5.0, 6.0, 7.1],
    time_per_cycle=[0.625, 0.5, 0.42, 0.36, 0.33],
    name="table-ii-i7-950",
)

#: The two-frequency subset Section V-A2 uses for model verification.
TABLE_II_VERIFICATION = RateTable(
    rates=[1.6, 3.0],
    energy_per_cycle=[3.375, 7.1],
    time_per_cycle=[0.625, 0.33],
    name="table-ii-verification",
)

#: Intel Core i7-950: 12 userspace frequency steps (Section II-B gives the
#: 1.6 / 1.73 / ... / 3.06 GHz range). Energy follows the cubic power law,
#: scaled to roughly match Table II at the shared endpoints.
I7_950 = rate_table_from_power_law(
    rates=[1.60, 1.73, 1.86, 2.00, 2.13, 2.26, 2.40, 2.53, 2.66, 2.79, 2.93, 3.06],
    dynamic_coefficient=0.72,
    static_power=2.5,
    name="i7-950",
)

#: ARM Exynos-4412: 0.2-1.7 GHz in 0.1 GHz steps (Section II-B).
EXYNOS_4412 = rate_table_from_power_law(
    rates=[round(0.2 + 0.1 * i, 1) for i in range(16)],
    dynamic_coefficient=0.35,
    static_power=0.004,
    name="exynos-4412",
)
