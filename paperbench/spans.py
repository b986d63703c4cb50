"""Timing for the benchmark: spans for the traced run, a host-speed-scaled clock.

:class:`ScaledClock` and :func:`reference_seconds` turn measured host
time into time at a fixed host speed; see the class docstring.

A span covers one call across a layer boundary: its name
(``layer.operation``), start, end and the span that caused it (the
enclosing open span). Paper-scale runs open ~10^5 spans per repetition,
so spans are kept in memory as per-name aggregates — call count, total
and self time, and every duration for percentiles — rather than as one
record each. Self time is a span's duration minus the time its child
spans cover.

The benchmark opens spans only around calls *into* the program (the
policy object handed to the simulator, the cost-index methods, the
vectorized kernels); nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import statistics
import time
from array import array
from typing import Any, Callable, Iterator


class SpanStats:
    """Aggregate of every span recorded under one name."""

    __slots__ = ("parents", "count", "total", "self_time", "durations")

    def __init__(self) -> None:
        self.parents: set[str] = set()
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = array("d")


class Spans:
    """Records spans with ``span(name)`` blocks and ``wrap(name, fn)`` calls."""

    enabled = True

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        # open spans, innermost last: [name, layer, start, child_seconds]
        self._stack: list[list[Any]] = []

    def _open(self, name: str, layer: str) -> None:
        self._stack.append([name, layer, time.perf_counter(), 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        name, _layer, start, child = self._stack.pop()
        duration = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            st.parents.add(parent[0])
        st.count += 1
        st.total += duration
        st.self_time += duration - child
        st.durations.append(duration)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._open(name, name.split(".", 1)[0])
        try:
            yield
        finally:
            self._close()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with one span per call.

        A call made while a span of the same layer is innermost (a cost
        probe that inserts and deletes internally) belongs to that span
        and opens none of its own.
        """
        layer = name.split(".", 1)[0]
        stack = self._stack

        def spanned(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            self._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return spanned

    @contextlib.contextmanager
    def patch(self, module: Any, attr: str, name: str) -> Iterator[None]:
        """Span every call to ``module.attr`` made inside the block."""
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(name, original))
        try:
            yield
        finally:
            setattr(module, attr, original)

    # -- per-layer views ------------------------------------------------------
    def _layer(self, layer: str) -> list[SpanStats]:
        return [st for name, st in self.stats.items() if name.split(".", 1)[0] == layer]

    def self_seconds(self, layer: str) -> float:
        return sum(st.self_time for st in self._layer(layer))

    def calls(self, layer: str) -> int:
        return sum(st.count for st in self._layer(layer))

    def durations(self, name_or_layer: str) -> list[float]:
        out: list[float] = []
        for name, st in self.stats.items():
            if name == name_or_layer or name.split(".", 1)[0] == name_or_layer:
                out.extend(st.durations)
        return out

    def summary(self) -> dict[str, dict[str, Any]]:
        """Per-span-name aggregates, for the trace file."""
        return {
            name: {
                "parents": sorted(st.parents),
                "count": st.count,
                "total_s": st.total,
                "self_s": st.self_time,
                "p50_us": 1e6 * statistics.median(st.durations),
                "max_us": 1e6 * max(st.durations),
            }
            for name, st in sorted(self.stats.items())
        }


class NullSpans:
    """The untraced stand-in: every hook is a no-op, so timed runs pay nothing."""

    enabled = False

    def span(self, name: str) -> contextlib.AbstractContextManager[None]:
        return contextlib.nullcontext()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        return fn

    def patch(self, module: Any, attr: str, name: str) -> contextlib.AbstractContextManager[None]:
        return contextlib.nullcontext()


#: Iterations of the reference snippet; one call takes about 1 ms on an
#: unloaded 2 GHz Xeon under CPython 3.11.
REFERENCE_ITERATIONS = 1000


def reference_seconds() -> float:
    """Time one fixed slice of interpreter work: heap and dict operations."""
    t0 = time.perf_counter()
    heap: list[tuple[float, int]] = []
    sums: dict[int, float] = {}
    for i in range(REFERENCE_ITERATIONS):
        heapq.heappush(heap, ((i * 0.6180339887) % 1.0, i))
        if len(heap) > 64:
            key, item = heapq.heappop(heap)
            sums[item & 127] = sums.get(item & 127, 0.0) + key
    return time.perf_counter() - t0


class ScaledClock:
    """Host time of one repetition, scaled to a fixed host speed.

    Other tenants of a shared host slow this process by up to 2x, in
    phases of seconds to minutes. At fixed progress points the clock
    pauses, times the reference snippet, and resumes, so the program and
    the snippet run under the same load. :meth:`seconds` reports the
    program's time divided by the snippet's mean time and multiplied by
    1 ms: the repetition's time on a host where the snippet takes exactly
    1 ms. A faster program lowers it; a busier host does not.
    """

    def __init__(self, every: int, spans: Any) -> None:
        self.every = every
        self.spans = spans
        self.calls = 0
        self.work = 0.0
        self.reference = 0.0
        self.references = 0
        self._since = 0.0

    def start(self) -> None:
        self._since = time.perf_counter()

    def mark(self) -> None:
        """End a segment of program time and time the snippet once."""
        self.work += time.perf_counter() - self._since
        with self.spans.span("bench.reference"):  # not part of the layer it interrupts
            self.reference += reference_seconds()
        self.references += 1
        self._since = time.perf_counter()

    def factor(self) -> float:
        """Measured seconds → seconds at 1 ms per reference call."""
        return 1e-3 * self.references / self.reference

    def seconds(self) -> float:
        return self.work * self.factor()

    def counting(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn``, marking before every ``every``-th call."""

        def counted(*args: Any, **kwargs: Any) -> Any:
            self.calls += 1
            if self.calls % self.every == 0:
                self.mark()
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def patch(self, owner: Any, attr: str) -> Iterator[None]:
        """Count calls to ``owner.attr`` (a module function or a method) in the block."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.counting(original))
        try:
            yield
        finally:
            setattr(owner, attr, original)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0..1) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
