"""A fixed slice of interpreter work that scales wall times to host speed.

Other tenants of a shared host slow a process by up to 2x, in phases of
seconds to minutes, so raw seconds recorded on one day fail a 25% gate
on another with no code change. ``repro bench`` therefore times a block
of this snippet right before every timed region and gates on *scaled*
seconds: the region's time on a host where one :func:`reference_seconds`
call takes exactly 1 ms. A faster program lowers them; a busier host
slows the snippet along with the region, so it moves them far less than
raw seconds (docs/PERFORMANCE.md measures where it still does). The
snippet is the one the ``paperbench`` harness uses for the same purpose.
"""

from __future__ import annotations

import heapq
import time

#: Iterations of the reference snippet; one call takes about 1 ms on an
#: unloaded 2 GHz Xeon under CPython 3.11.
REFERENCE_ITERATIONS = 1000

#: Seconds one reference call takes on the host scaled times refer to.
REFERENCE_CALL_S = 1e-3


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


def reference_block(seconds: float) -> float:
    """Mean time of one reference call over a block of calls lasting at
    least ``seconds``.

    A region is compared with a block as long as itself: on a host that
    time-slices the CPU among tenants, a single 1 ms call mostly fits in
    one slice while a 40 ms region does not, so only a block of similar
    length is slowed by the same share.
    """
    calls, total = 0, 0.0
    while calls == 0 or total < seconds:
        total += reference_seconds()
        calls += 1
    return total / calls


def scale(seconds: float, reference: float) -> float:
    """``seconds`` measured where one reference call took ``reference``
    seconds, at :data:`REFERENCE_CALL_S` per call."""
    return seconds * REFERENCE_CALL_S / reference


__all__ = ["REFERENCE_CALL_S", "REFERENCE_ITERATIONS", "reference_block",
           "reference_seconds", "scale"]
