"""Randomized instance generation for the differential fuzzer.

Everything here is driven by an explicit :class:`random.Random` so a
fuzz run is fully reproducible from its seed. The generators are
deliberately adversarial: alongside benign uniform instances they
produce the degenerate corners the paper's algorithms must survive —
single-rate tables, nearly-indistinguishable energy steps, extreme
``Re/Rt`` price ratios (which push dominating-range boundaries to huge
positions), crossovers engineered to land **exactly** on integers (the
tie rule's worst case, built from dyadic floats so the arithmetic is
exact), duplicate cycle counts, and heterogeneous platforms.

Cases are plain JSON-able dicts, so a failing instance can be shrunk
and printed verbatim as a regression test.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.models.cost import CostModel
from repro.models.rates import RateTable
from repro.models.task import Task, TaskKind

#: Dyadic multipliers used wherever exact float arithmetic matters.
_DYADIC = [0.25, 0.5, 1.0, 2.0, 4.0]


# ---------------------------------------------------------------------------
# rate tables
# ---------------------------------------------------------------------------

def gen_table_dict(rng: random.Random, max_rates: int = 6) -> dict:
    """A random valid rate-table spec ``{"rates", "energy", "time"}``."""
    style = rng.choice(["uniform", "integer", "tight-energy", "exact-crossover", "single"])
    if style == "single":
        p = rng.choice([0.5, 1.0, rng.uniform(0.1, 8.0)])
        return {"rates": [p], "energy": [rng.uniform(0.1, 10.0)], "time": [1.0 / p]}
    if style == "exact-crossover":
        return _gen_exact_crossover_table(rng, max_rates)

    n = rng.randint(2, max_rates)
    if style == "integer":
        rates = sorted(rng.sample(range(1, 4 * max_rates), n))
        rates = [float(p) for p in rates]
    else:
        rates = []
        p = rng.uniform(0.1, 2.0)
        for _ in range(n):
            rates.append(round(p, 6))
            p += rng.uniform(0.05, 3.0)

    energies = []
    e = rng.uniform(0.01, 5.0)
    for _ in range(n):
        energies.append(e)
        if style == "tight-energy":
            # nearly indistinguishable energy steps: the hull pass must
            # still order them strictly
            e += rng.choice([1e-9, 1e-7, 1e-5]) * (1.0 + rng.random())  # repro-lint: disable=RP001 -- fuzz jitter magnitudes, not comparison tolerances
        else:
            e += rng.uniform(0.01, 4.0)

    if rng.random() < 0.3:
        # custom strictly-decreasing time profile instead of T = 1/p
        times = []
        t = rng.uniform(1.0, 5.0)
        for _ in range(n):
            times.append(t)
            t *= rng.uniform(0.3, 0.9)
    else:
        times = [1.0 / p for p in rates]
    return {"rates": rates, "energy": energies, "time": times}


def _gen_exact_crossover_table(rng: random.Random, max_rates: int) -> dict:
    """A table whose consecutive crossovers land exactly on integers.

    Rates are powers of two (so ``T = 1/p`` is exact) and energies are
    built as ``E_{i+1} = E_i + k_i·(T_i − T_{i+1})`` with integer
    ``k_i`` — all dyadic arithmetic, hence exact in binary floats when
    paired with dyadic ``Re``/``Rt``. The crossover of lines ``i`` and
    ``i+1`` is then *exactly* ``k_i``, exercising the "ties go to the
    higher rate" rule. Occasionally two boundaries coincide, producing
    a rate whose dominating range is empty.
    """
    n = rng.randint(2, min(4, max_rates))
    rates = [float(2 ** i) for i in range(n)]
    times = [1.0 / p for p in rates]
    boundaries: list[int] = []
    k = 0
    for _ in range(n - 1):
        if boundaries and rng.random() < 0.2:
            boundaries.append(k)  # duplicate boundary -> empty range
            continue
        k += rng.choice([1, 2, 3, 5, rng.randint(1, 50),
                         rng.choice([10_000, 100_000, 1_000_000])])
        boundaries.append(k)
    energies = [rng.choice([0.5, 1.0, 2.0])]
    for i, kb in enumerate(boundaries):
        energies.append(energies[-1] + kb * (times[i] - times[i + 1]))
    return {"rates": rates, "energy": energies, "time": times}


def table_from_dict(spec: dict) -> RateTable:
    return RateTable(spec["rates"], spec["energy"], spec["time"])


def gen_pricing(rng: random.Random) -> tuple[float, float]:
    """``(Re, Rt)``, occasionally with an extreme price ratio."""
    style = rng.random()
    if style < 0.3:
        return rng.choice(_DYADIC), rng.choice(_DYADIC)  # exact dyadics
    if style < 0.5:
        # extreme ratios push crossovers to huge / tiny positions
        exp = rng.choice([-6, -4, 4, 6])
        return 10.0 ** exp, 1.0
    return rng.uniform(0.01, 10.0), rng.uniform(0.01, 10.0)


def models_from_case(case: dict) -> list[CostModel]:
    """Per-core :class:`CostModel` list from a case's tables + pricing."""
    return [
        CostModel(table_from_dict(spec), case["re"], case["rt"])
        for spec in case["tables"]
    ]


def gen_tables(rng: random.Random, n_cores: int) -> list[dict]:
    """Per-core table specs — homogeneous half the time."""
    if n_cores == 1 or rng.random() < 0.5:
        spec = gen_table_dict(rng)
        return [spec for _ in range(n_cores)]
    return [gen_table_dict(rng) for _ in range(n_cores)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def gen_cycles(rng: random.Random, n: int) -> list[float]:
    """Cycle counts with adversarial duplicates and magnitude spread."""
    pool_style = rng.random()
    if pool_style < 0.3:
        # heavy duplication: all values drawn from a tiny pool
        pool = [rng.choice([1.0, 2.0, 5.0, rng.uniform(0.5, 20.0)])
                for _ in range(max(1, n // 3))]
        return [rng.choice(pool) for _ in range(n)]
    if pool_style < 0.45:
        return [float(2 ** rng.randint(-3, 12)) for _ in range(n)]
    if pool_style < 0.55:
        return [rng.choice([1e-6, 1e-3, 1.0, 1e3, 1e6]) for _ in range(n)]  # repro-lint: disable=RP001 -- extreme-scale cycle counts for fuzzing, not tolerances
    return [round(rng.uniform(0.01, 100.0), 6) for _ in range(n)]


def gen_trace_dicts(rng: random.Random, n_tasks: int, duration: float = 10.0) -> list[dict]:
    """An online trace spec: arrivals with deliberate collisions."""
    cycles = gen_cycles(rng, n_tasks)
    out = []
    clock = 0.0
    for c in cycles:
        gap_style = rng.random()
        if gap_style < 0.2:
            gap = 0.0  # simultaneous arrivals
        elif gap_style < 0.4:
            gap = round(rng.uniform(0, duration / max(1, n_tasks)), 3)  # grid collisions
        else:
            gap = rng.uniform(0, 2 * duration / max(1, n_tasks))
        clock += gap
        kind = "interactive" if rng.random() < 0.35 else "noninteractive"
        out.append({"cycles": min(c, 1e4), "arrival": clock, "kind": kind})
    return out


#: An exact platform for online traces: ``T = 1/p`` is a power of two,
#: so dyadic cycle counts finish at exact instants.
DYADIC_TABLE = {"rates": [1.0, 2.0, 4.0], "energy": [1.0, 2.5, 7.0],
                "time": [1.0, 0.5, 0.25]}

#: Arrival patterns of :func:`gen_extreme_trace_dicts`.
EXTREME_STYLES = ("same-instant", "bursts", "storm", "on-completion")


def gen_extreme_trace_dicts(rng: random.Random, n_tasks: int, style: str) -> list[dict]:
    """An online trace spec at the simulator's boundaries.

    Cycle counts span 1e-6 to 1e9 in every style; ``style`` picks the
    arrival pattern:

    * ``same-instant`` — every task arrives at one instant;
    * ``bursts`` — zero-gap bursts separated by idle gaps;
    * ``storm`` — zero-gap bursts of interactive tasks only;
    * ``on-completion`` — dyadic cycles (2⁻²⁰ … 2³⁰) on
      :data:`DYADIC_TABLE`, each arrival placed exactly where the
      previous tasks finish when run back to back at the top rate, so
      arrivals land on completion instants.
    """
    if style not in EXTREME_STYLES:
        raise ValueError(f"unknown extreme trace style {style!r}")
    out = []
    if style == "on-completion":
        clock = free_at = float(rng.randint(0, 4))
        for _ in range(n_tasks):
            cycles = float(2 ** rng.choice([-20, -10, 0, 1, 2, 3, 10, 20, 30]))
            if rng.random() < 0.7:
                clock = free_at
            kind = "interactive" if rng.random() < 0.35 else "noninteractive"
            out.append({"cycles": cycles, "arrival": clock, "kind": kind})
            free_at = max(free_at, clock) + cycles * DYADIC_TABLE["time"][-1]
        return out
    clock = rng.uniform(0.0, 10.0)
    burst_left = 0
    for _ in range(n_tasks):
        if rng.random() < 0.3:
            cycles = rng.choice([1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9])  # repro-lint: disable=RP001 -- extreme-scale cycle counts for fuzzing, not tolerances
        else:
            cycles = 10.0 ** rng.uniform(-6.0, 9.0)
        if style != "same-instant":
            if burst_left == 0:
                clock += rng.choice([1e-6, 1.0, rng.uniform(0.0, 1e3)])  # repro-lint: disable=RP001 -- gap magnitudes for fuzzing, not tolerances
                burst_left = rng.randint(1, 8)
            burst_left -= 1
        interactive = style == "storm" or rng.random() < 0.35
        out.append({"cycles": cycles, "arrival": clock,
                    "kind": "interactive" if interactive else "noninteractive"})
    return out


def trace_from_dicts(specs: Sequence[dict], base_id: int = 0) -> list[Task]:
    return [
        Task(
            cycles=s["cycles"],
            arrival=s["arrival"],
            kind=TaskKind.INTERACTIVE if s["kind"] == "interactive" else TaskKind.NONINTERACTIVE,
        )
        for s in specs
    ]


# ---------------------------------------------------------------------------
# operation sequences (dynamic index fuzzing)
# ---------------------------------------------------------------------------

def gen_ops(rng: random.Random, n_ops: int) -> list[list]:
    """Insert/delete sequences: ``["i", cycles]`` or ``["d", pick]``.

    ``pick`` indexes the live nodes modulo the current population at
    replay time, so any op sequence stays valid under shrinking.
    """
    ops: list[list] = []
    live = 0
    cycles = gen_cycles(rng, n_ops)
    for i in range(n_ops):
        if live > 0 and rng.random() < 0.4:
            ops.append(["d", rng.randint(0, 2 * live)])
            live -= 1
        else:
            ops.append(["i", cycles[i]])
            live += 1
    return ops
