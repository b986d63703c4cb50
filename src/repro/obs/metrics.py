"""Metrics registry: one vocabulary for the scheduler's ad-hoc counters.

Before this module existed the repo kept operational statistics in
three unrelated shapes: the Algorithm 1 memo's
:func:`~repro.core.dominating.dominating_cache_stats` dict, each
:class:`~repro.core.dynamic.DynamicCostIndex`'s ``counters`` dict, and
the per-scenario ``ops`` dicts ``repro bench`` records. This registry
unifies them behind three instrument types with explicit merge/reset
semantics:

* :class:`Counter` — monotone event count; merging **adds**.
* :class:`Gauge` — last-observed value; merging **takes the other
  registry's value** (last write wins).
* :class:`Histogram` — bucketed observation counts over fixed,
  ascending upper bounds (plus a ``+inf`` overflow bucket); merging
  adds bucket-wise and requires identical bucket layouts.

Metric names are dotted lowercase (``component.metric``), e.g.
``dominating_cache.hits``, ``dynamic.core0.inserts``,
``trace.events.wbg.slot_pick`` — the full catalog is in
docs/OBSERVABILITY.md. Everything here is plain deterministic
arithmetic: no host clock, no background threads, no sampling.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

_NAME_OK = "abcdefghijklmnopqrstuvwxyz0123456789._-"


def _check_name(name: str) -> str:
    if not name or any(c not in _NAME_OK for c in name):
        raise ValueError(
            f"metric name {name!r} must be non-empty dotted lowercase "
            "(a-z, 0-9, '.', '_', '-')"
        )
    return name


class Counter:
    """A monotone counter. ``inc`` only; merging adds."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for signed values")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time value. ``set`` wins; merging takes the other's value."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self.value: float = 0.0

    def set(self, value: float) -> None:
        if math.isnan(value):
            raise ValueError("gauge value is NaN")
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0

    def merge(self, other: "Gauge") -> None:
        self.value = other.value

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Observation counts over fixed ascending bucket upper-bounds.

    ``buckets=(1, 10, 100)`` yields counts for ``<=1``, ``<=10``,
    ``<=100`` and ``+inf``; :attr:`total` and :attr:`sum` support mean
    queries. Bucket layouts are part of a histogram's identity — merge
    rejects mismatched layouts rather than guessing a rebinning.
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float], help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram bucket bounds must be strictly ascending")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = overflow (+inf)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        if math.isnan(value):
            raise ValueError("histogram observation is NaN")
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket layouts differ "
                f"({self.bounds} vs {other.bounds})"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.total += other.total
        self.sum += other.sum

    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
        }


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named instruments with get-or-create access and snapshot/merge/reset.

    Lookups are type-checked: asking for an existing name with a
    different instrument type (or different histogram buckets) raises
    instead of silently shadowing.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __iter__(self) -> Iterable[Instrument]:
        return iter(sorted(self._instruments.values(), key=lambda m: m.name))

    def _get_or_create(self, name: str, factory: Any, kind: str) -> Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {existing.kind}, "
                    f"requested as a {kind}"
                )
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        out = self._get_or_create(name, lambda: Counter(name, help), "counter")
        assert isinstance(out, Counter)
        return out

    def gauge(self, name: str, help: str = "") -> Gauge:
        out = self._get_or_create(name, lambda: Gauge(name, help), "gauge")
        assert isinstance(out, Gauge)
        return out

    def histogram(self, name: str, buckets: Sequence[float], help: str = "") -> Histogram:
        out = self._get_or_create(name, lambda: Histogram(name, buckets, help), "histogram")
        assert isinstance(out, Histogram)
        if out.bounds != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with buckets {out.bounds}"
            )
        return out

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def snapshot(self) -> dict[str, Any]:
        """A plain, JSON-ready ``{name: value}`` mapping (sorted by name)."""
        return {m.name: m.snapshot() for m in self}

    def reset(self) -> None:
        """Zero every instrument, keeping registrations (names, buckets)."""
        for instrument in self._instruments.values():
            instrument.reset()

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry per each type's semantics.

        Instruments only present in ``other`` are copied in by
        re-registering the same name/type and merging; type conflicts
        raise. Returns ``self`` for chaining.
        """
        for instrument in other:
            if isinstance(instrument, Counter):
                self.counter(instrument.name, instrument.help).merge(instrument)
            elif isinstance(instrument, Gauge):
                self.gauge(instrument.name, instrument.help).merge(instrument)
            else:
                self.histogram(
                    instrument.name, instrument.bounds, instrument.help
                ).merge(instrument)
        return self

    def render_text(self) -> str:
        """Human-readable one-line-per-metric dump (sorted by name)."""
        lines = []
        for m in self:
            if isinstance(m, Histogram):
                lines.append(
                    f"{m.name}  total={m.total} mean={m.mean():.6g} "
                    f"buckets={list(zip([*m.bounds, 'inf'], m.counts))}"
                )
            elif isinstance(m, Gauge):
                lines.append(f"{m.name}  {m.value:.6g}")
            else:
                lines.append(f"{m.name}  {m.value}")
        return "\n".join(lines)


def _counters_into(registry: MetricsRegistry, prefix: str,
                   counts: Mapping[str, int]) -> None:
    for key in sorted(counts):
        c = registry.counter(f"{prefix}.{key}")
        c.reset()
        c.inc(int(counts[key]))


def scheduler_metrics(
    policy: Any = None,
    indexes: Sequence[Any] = (),
    tracer: Any = None,
    cache: bool = True,
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Collect the repo's scattered operational counters into one registry.

    Unifies, under the documented metric names:

    * ``dominating_cache.*`` — the process-wide Algorithm 1 memo
      (:func:`~repro.core.dominating.dominating_cache_stats`);
    * ``lmc.*`` — a policy's aggregated probe counters
      (``policy.probe_counters()`` or a scheduler's ``counters()``);
    * ``dynamic.queue<i>.*`` — each supplied
      :class:`~repro.core.dynamic.DynamicCostIndex`'s ``counters``;
    * ``trace.events.<kind>`` — a tracer's per-kind emission counts.

    Pass an existing ``registry`` to accumulate into it (counters are
    overwritten with the latest absolute values, since the sources are
    themselves cumulative).
    """
    reg = registry if registry is not None else MetricsRegistry()
    if cache:
        from repro.core.dominating import dominating_cache_stats

        stats = dominating_cache_stats()
        for key in ("hits", "misses", "evictions", "invalidations"):
            c = reg.counter(f"dominating_cache.{key}")
            c.reset()
            c.inc(stats[key])
        reg.gauge("dominating_cache.entries").set(stats["entries"])
        reg.gauge("dominating_cache.capacity").set(stats["capacity"])
    if policy is not None:
        source = getattr(policy, "probe_counters", None) or getattr(policy, "counters")
        _counters_into(reg, "lmc", source())
    for i, index in enumerate(indexes):
        _counters_into(reg, f"dynamic.queue{i}", index.counters)
    if tracer is not None and getattr(tracer, "counts", None):
        for kind in sorted(tracer.counts):
            c = reg.counter(f"trace.events.{kind}")
            c.reset()
            c.inc(tracer.counts[kind])
    return reg
