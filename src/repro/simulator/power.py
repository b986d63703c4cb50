"""Power-meter substrate.

The paper measures energy with a DW-6091 wall-power meter: energy is
"the integral of the power reading over the execution period", and the
idle machine's draw is measured first and subtracted. :class:`PowerMeter`
reproduces that procedure over simulated time: callers report
piecewise-constant power segments and the meter integrates them,
keeping busy (net) and idle components separate.

A sampling mode mimics the physical meter's finite reading rate:
:meth:`sampled_energy` re-integrates the recorded power signal from
periodic samples (rectangle rule), which the model-verification tests
use to show sampling error is negligible at 1 Hz for our workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class PowerSegment:
    """A constant-power interval ``[start, end)`` at ``watts``."""

    start: float
    end: float
    watts: float
    idle: bool

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def joules(self) -> float:
        return self.watts * self.duration


@dataclass
class PowerMeter:
    """Integrates piecewise-constant power over simulated time.

    Parameters
    ----------
    idle_power:
        The baseline draw recorded while idle (watts, finite and
        non-negative). Idle intervals are integrated at this power and
        booked separately, mirroring the paper's idle-subtraction step.
    keep_trace:
        When True every segment is retained for :meth:`sampled_energy`
        and plotting; disable for long online runs to bound memory.
    """

    idle_power: float = 0.0
    keep_trace: bool = True
    busy_joules: float = 0.0
    idle_joules: float = 0.0
    _trace: list[PowerSegment] = field(default_factory=list, repr=False)
    _last_end: float = 0.0

    def __post_init__(self) -> None:
        # the only gate on the idle floor: book_idle trusts it
        if not (math.isfinite(self.idle_power) and self.idle_power >= 0):
            raise ValueError(
                f"idle_power must be finite and non-negative, got {self.idle_power!r}")

    def record_busy(self, start: float, end: float, watts: float) -> None:
        """Book a busy interval at ``watts`` (net of the idle floor)."""
        self._check_interval(start, end)
        if watts < 0:
            raise ValueError("power must be non-negative")
        if end == start:
            return
        self.book_busy(start, end, watts)

    def record_idle(self, start: float, end: float) -> None:
        """Book an idle interval at the idle floor."""
        self._check_interval(start, end)
        if end == start:
            return
        self.book_idle(start, end)

    def book_busy(self, start: float, end: float, watts: float) -> None:
        """:meth:`record_busy` without its checks.

        The caller guarantees ``start < end`` (so neither is NaN) and
        finite, non-negative ``watts``; :class:`~repro.simulator.platform.SimCore`
        books through here from its integration step.
        """
        self.busy_joules += watts * (end - start)
        if self.keep_trace:
            self._trace.append(PowerSegment(start, end, watts, idle=False))
        if end > self._last_end:
            self._last_end = end

    def book_idle(self, start: float, end: float) -> None:
        """:meth:`record_idle` without its checks; ``start < end`` is the caller's."""
        self.idle_joules += self.idle_power * (end - start)
        if self.keep_trace:
            self._trace.append(PowerSegment(start, end, self.idle_power, idle=True))
        if end > self._last_end:
            self._last_end = end

    @staticmethod
    def _check_interval(start: float, end: float) -> None:
        if math.isnan(start) or math.isnan(end):
            raise ValueError("interval bounds are NaN")
        if end < start:
            raise ValueError(f"interval end {end} before start {start}")

    # -- readings ---------------------------------------------------------------
    @property
    def net_joules(self) -> float:
        """Energy after idle subtraction — what the paper reports."""
        return self.busy_joules

    @property
    def gross_joules(self) -> float:
        """Wall energy including the idle floor over booked intervals."""
        return self.busy_joules + self.idle_joules

    def power_at(self, t: float) -> float:
        """Instantaneous booked power at time ``t`` (0 if nothing booked).

        Requires ``keep_trace``. Overlapping segments (multiple cores
        booked into one meter) sum, as a wall meter would read.
        """
        self._require_trace()
        return sum(s.watts for s in self._trace if s.start <= t < s.end)

    def sampled_energy(self, sample_period: float, until: float | None = None) -> float:
        """Rectangle-rule re-integration from periodic samples.

        Mimics a physical meter reading every ``sample_period`` seconds;
        exact integration is :attr:`gross_joules`. The difference is the
        sampling error a real measurement would incur.
        """
        self._require_trace()
        if sample_period <= 0:
            raise ValueError("sample_period must be positive")
        end = self._last_end if until is None else until
        total = 0.0
        t = 0.0
        while t < end:
            total += self.power_at(t) * min(sample_period, end - t)
            t += sample_period
        return total

    def merge(self, other: "PowerMeter") -> None:
        """Fold another meter's books into this one (e.g. per-core → platform)."""
        self.busy_joules += other.busy_joules
        self.idle_joules += other.idle_joules
        if self.keep_trace and other.keep_trace:
            self._trace.extend(other._trace)
        self._last_end = max(self._last_end, other._last_end)

    def _require_trace(self) -> None:
        if not self.keep_trace:
            raise RuntimeError("trace retention is disabled on this meter")
