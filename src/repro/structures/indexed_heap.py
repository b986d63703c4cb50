"""Addressable binary min-heap.

Workload Based Greedy (Algorithm 3) repeatedly extracts the core with
the minimum next positional cost ``C*_j(k)`` and pushes that core's
``C*_j(k+1)``; the online runners additionally need to adjust or remove
keyed entries (e.g. when a core's queue is rebuilt). A plain
``heapq`` with lazy deletion would do for WBG alone, but the online
simulator benefits from true decrease-key, so we keep one addressable
heap implementation for both.

Keys are compared as tuples ``(priority, tiebreak)`` so equal
priorities resolve deterministically (lowest tiebreak wins).
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator


class IndexedMinHeap:
    """Binary min-heap with ``O(log n)`` update/remove by item key.

    Items are arbitrary hashable keys; each has a float priority and an
    optional deterministic tiebreak (defaults to insertion order).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, Any, Hashable]] = []  # (priority, tiebreak, item)
        self._pos: dict[Hashable, int] = {}
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._pos

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._pos)

    def push(self, item: Hashable, priority: float, tiebreak: Any = None) -> None:
        """Insert ``item``; raises if already present (use :meth:`update`)."""
        if item in self._pos:
            raise KeyError(f"item {item!r} already in heap")
        if tiebreak is None:
            tiebreak = self._seq
            self._seq += 1
        self._heap.append((priority, tiebreak, item))
        self._pos[item] = len(self._heap) - 1
        self._sift_up(len(self._heap) - 1)

    def peek(self) -> tuple[Hashable, float]:
        """The (item, priority) pair with minimum priority, without removing it."""
        if not self._heap:
            raise IndexError("peek from empty heap")
        prio, _, item = self._heap[0]
        return item, prio

    def pop(self) -> tuple[Hashable, float]:
        """Remove and return the (item, priority) pair with minimum priority."""
        if not self._heap:
            raise IndexError("pop from empty heap")
        prio, _, item = self._heap[0]
        self._remove_at(0)
        return item, prio

    def remove(self, item: Hashable) -> float:
        """Remove ``item``, returning its priority."""
        i = self._pos[item]
        prio = self._heap[i][0]
        self._remove_at(i)
        return prio

    def update(self, item: Hashable, priority: float, tiebreak: Any = None) -> None:
        """Change ``item``'s priority (increase or decrease).

        ``tiebreak=None`` (the default) **preserves** the item's stored
        tiebreak — it never mints a fresh insertion-order one — so a
        same-priority update is a true no-op for equal-priority ordering
        (determinism pinned by the regression tests).
        """
        i = self._pos[item]
        old_prio, old_tb, _ = self._heap[i]
        if tiebreak is None:
            tiebreak = old_tb
        self._heap[i] = (priority, tiebreak, item)
        if (priority, tiebreak) < (old_prio, old_tb):
            self._sift_up(i)
        else:
            self._sift_down(i)

    def push_or_update(self, item: Hashable, priority: float, tiebreak: Any = None) -> None:
        """Insert or reprioritise. The ``tiebreak`` is forwarded to both
        paths (it used to be dropped silently on the update path)."""
        if item in self._pos:
            self.update(item, priority, tiebreak)
        else:
            self.push(item, priority, tiebreak)

    def priority_of(self, item: Hashable) -> float:
        return self._heap[self._pos[item]][0]

    # -- internals ---------------------------------------------------------------
    def _remove_at(self, i: int) -> None:
        last = len(self._heap) - 1
        item = self._heap[i][2]
        if i != last:
            self._swap(i, last)
        self._heap.pop()
        del self._pos[item]
        if i <= last - 1 and self._heap:
            i = min(i, len(self._heap) - 1)
            self._sift_down(i)
            self._sift_up(i)

    def _swap(self, i: int, j: int) -> None:
        self._heap[i], self._heap[j] = self._heap[j], self._heap[i]
        self._pos[self._heap[i][2]] = i
        self._pos[self._heap[j][2]] = j

    @staticmethod
    def _lt(a: tuple[float, Any, Hashable], b: tuple[float, Any, Hashable]) -> bool:
        return (a[0], a[1]) < (b[0], b[1])

    def _sift_up(self, i: int) -> None:
        while i > 0:
            parent = (i - 1) >> 1
            if self._lt(self._heap[i], self._heap[parent]):
                self._swap(i, parent)
                i = parent
            else:
                break

    def _sift_down(self, i: int) -> None:
        n = len(self._heap)
        while True:
            smallest = i
            for child in (2 * i + 1, 2 * i + 2):
                if child < n and self._lt(self._heap[child], self._heap[smallest]):
                    smallest = child
            if smallest == i:
                return
            self._swap(i, smallest)
            i = smallest

    def check_invariants(self) -> None:
        """Verify heap order and the position index. ``O(n)``; tests only."""
        for i in range(1, len(self._heap)):
            parent = (i - 1) >> 1
            assert not self._lt(self._heap[i], self._heap[parent]), "heap order broken"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
        for item, i in self._pos.items():
            assert self._heap[i][2] == item, "position index broken"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
        assert len(self._pos) == len(self._heap), "position index size mismatch"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
