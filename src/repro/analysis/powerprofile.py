"""Platform power over time, derived from a batch run's task records.

The paper measures energy with a DW-6091 wall-power meter: energy is
"the integral of the power reading over the execution period", and the
idle machine's draw is measured first and subtracted. The simulator
keeps one energy ledger, the task records (``e = L·E(p)``, Eq. 1), and
this module derives the meter's reading from them after the run:
:func:`power_trace` turns each record into one busy segment at its
rate's power ``E(p)/T(p)`` and idles each core at a constant floor from
its last finish to the makespan, booked separately so it can be
subtracted. :func:`sampled_energy` re-integrates a trace from periodic
samples, as a meter with a finite reading rate would, and
:func:`render_power_profile` draws the summed ("wall") power of the
whole platform as a terminal block chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.models.rates import RateTable
from repro.models.tolerances import ABS_TOL
from repro.simulator.batch_runner import BatchResult

#: Eight-step block ramp for the vertical resolution of one text row.
_BLOCKS = " ▁▂▃▄▅▆▇█"


@dataclass(frozen=True)
class PowerSegment:
    """A constant-power interval ``[start, end)`` at ``watts``."""

    start: float
    end: float
    watts: float
    idle: bool

    @property
    def joules(self) -> float:
        return self.watts * (self.end - self.start)


def power_trace(
    result: BatchResult,
    tables: Sequence[RateTable] | RateTable,
    idle_power: float = 0.0,
) -> list[list[PowerSegment]]:
    """Each core's power segments over ``[0, makespan]``, in ``result.cores`` order.

    One busy segment ``[start, finish)`` per record at ``table.power(rate)``
    (a zero-length span is skipped), then one idle segment from the
    core's last finish to the makespan at ``idle_power`` (watts, finite
    and non-negative). ``tables`` is what the run was given: one shared
    table or one per core index.
    """
    if not (math.isfinite(idle_power) and idle_power >= 0):
        raise ValueError(f"idle_power must be finite and non-negative, got {idle_power!r}")
    trace: dict[int, list[PowerSegment]] = {core: [] for core in result.cores}
    idle_from = dict.fromkeys(result.cores, 0.0)
    for r in result.records:
        if r.finish > r.start:
            table = tables if isinstance(tables, RateTable) else tables[r.core]
            trace[r.core].append(PowerSegment(r.start, r.finish, table.power(r.rate), idle=False))
        idle_from[r.core] = r.finish
    for core, segments in trace.items():
        if result.makespan > idle_from[core]:
            segments.append(PowerSegment(idle_from[core], result.makespan, idle_power, idle=True))
    return list(trace.values())


def power_at(segments: Sequence[PowerSegment], t: float) -> float:
    """Power at time ``t`` (0 outside every segment); overlapping
    segments, such as several cores' chained, sum as a wall meter reads."""
    return sum(s.watts for s in segments if s.start <= t < s.end)


def sampled_energy(segments: Sequence[PowerSegment], sample_period: float) -> float:
    """Rectangle-rule re-integration from periodic samples.

    Mimics a physical meter reading every ``sample_period`` seconds up
    to the last segment end; the exact integral is the sum of the
    segments' joules, and the difference is the sampling error a real
    measurement would incur.
    """
    if not sample_period > 0:
        raise ValueError("sample_period must be positive")
    end = max((s.end for s in segments), default=0.0)
    total = 0.0
    t = 0.0
    while t < end:
        total += power_at(segments, t) * min(sample_period, end - t)
        t += sample_period
    return total


def render_power_profile(
    segments: Sequence[PowerSegment],
    duration: float,
    width: int = 72,
    height: int = 6,
) -> str:
    """Block chart of the power of ``segments`` over ``[0, duration]``.

    ``width`` columns × ``height`` rows; each column is the mean power
    over its time bucket (sampled at 4× column resolution to keep
    short spikes visible).
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if width < 4 or height < 1:
        raise ValueError("width must be >= 4 and height >= 1")

    samples_per_col = 4
    dt = duration / (width * samples_per_col)
    columns = []
    for c in range(width):
        acc = 0.0
        for s in range(samples_per_col):
            t = (c * samples_per_col + s + 0.5) * dt
            acc += power_at(segments, t)
        columns.append(acc / samples_per_col)

    peak = max(columns) if any(columns) else 1.0
    if peak <= 0:
        peak = 1.0

    rows = []
    for level in range(height, 0, -1):
        hi = peak * level / height
        lo = peak * (level - 1) / height
        line = []
        for p in columns:
            if p <= lo:
                line.append(" ")
            elif p >= hi:
                line.append(_BLOCKS[-1])
            else:
                frac = (p - lo) / (hi - lo)
                line.append(_BLOCKS[max(1, min(8, int(round(frac * 8))))])
        label = f"{hi:7.1f}W |"
        rows.append(label + "".join(line))
    rows.append(" " * 9 + "+" + "-" * width)
    rows.append(" " * 10 + f"0s{' ' * (width - len(f'{duration:.0f}s') - 2)}{duration:.0f}s")
    rows.append(f"peak {peak:.1f} W, mean "
                f"{sum(columns) / len(columns):.1f} W over {duration:.0f} s")
    return "\n".join(rows)


def batch_power_profile(
    result: BatchResult,
    tables: Sequence[RateTable] | RateTable,
    idle_power: float = 0.0,
    width: int = 72,
    height: int = 6,
) -> str:
    """Platform ("wall") profile of a finished batch run: every core's
    :func:`power_trace` chained into one reading."""
    platform = [s for core in power_trace(result, tables, idle_power) for s in core]
    return render_power_profile(platform, max(result.makespan, ABS_TOL),
                                width=width, height=height)
