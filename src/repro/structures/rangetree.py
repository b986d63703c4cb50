"""The 1D range tree of Section IV-A.

The paper's dynamic-scheduling structure is "basically a balanced
binary search tree, with each node keeping (1) the number of nodes,
(2) ξ, (3) Δ, of its subtree". We realise it as a **treap** (randomised
balanced BST) ordered by **descending cycle count**, so the node of
rank ``k`` holds ``L^B_k`` — the ``k``-th largest task, i.e. the task
at backward position ``k`` in the cost-optimal queue.

Supported operations (``N`` = number of stored tasks):

* ``insert(value, payload)`` → node, ``O(log N)`` expected;
* ``delete(node)``, ``O(log N)`` expected;
* ``rank(node)`` — 1-based rank, ``O(log N)``;
* ``select(k)`` — node of rank ``k``, ``O(log N)``;
* ``count_ge(value)`` — how many stored values are ``>= value``,
  ``O(log N)``;
* ``range_sum(a, b)`` — ``ξ([a,b]) = Σ_{k=a..b} L^B_k`` (Equation 28);
* ``range_delta(a, b)`` — ``Δ([a,b]) = Σ_{k=a..b} (k-a+1)·L^B_k``
  (Equation 29), both ``O(log N)``;
* ``node.prev`` / ``node.next`` — ``Θ(1)`` predecessor/successor via
  doubly-linked threading, as the paper requires for the improved
  ``O(|P̂| + log N)`` maintenance.

Duplicate values are allowed; ties are broken by insertion sequence so
the order is total and deterministic.
"""

from __future__ import annotations

import random
from typing import Any, Iterator, Optional

from repro.models.tolerances import AGG_REL_TOL


class RangeTreeNode:
    """One stored task. Treat as opaque outside this module except for
    ``value`` (the cycle count ``L``), ``payload``, and the ``Θ(1)``
    ``prev`` / ``next`` threading pointers."""

    __slots__ = (
        "value",
        "payload",
        "_key",
        "_prio",
        "left",
        "right",
        "parent",
        "size",
        "sum",
        "wsum",
        "prev",
        "next",
        "_tree",
    )

    def __init__(self, value: float, payload: Any, key: tuple[float, int], prio: float) -> None:
        self.value = value
        self.payload = payload
        self._key = key
        self._prio = prio
        self.left: Optional[RangeTreeNode] = None
        self.right: Optional[RangeTreeNode] = None
        self.parent: Optional[RangeTreeNode] = None
        self.size = 1
        self.sum = value
        self.wsum = value  # Σ (local 1-based in-order position)·value over the subtree
        self.prev: Optional[RangeTreeNode] = None
        self.next: Optional[RangeTreeNode] = None
        self._tree: Optional["RangeTree"] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RangeTreeNode(value={self.value!r}, rank={self._tree.rank(self) if self._tree else '?'})"


def _size(t: Optional[RangeTreeNode]) -> int:
    return t.size if t is not None else 0


def _sum(t: Optional[RangeTreeNode]) -> float:
    return t.sum if t is not None else 0.0


def _wsum(t: Optional[RangeTreeNode]) -> float:
    return t.wsum if t is not None else 0.0


class RangeTree:
    """Order-statistics treap keyed by descending ``value``.

    Rank 1 holds the largest value (``L^B_1`` — the task executed
    last). All aggregate queries use 1-based inclusive rank intervals.

    Parameters
    ----------
    seed:
        Seed for the treap priorities; fixed by default so runs are
        reproducible.
    """

    def __init__(self, seed: int = 0x5EED) -> None:
        self._rng = random.Random(seed)
        self._root: Optional[RangeTreeNode] = None
        self._seq = 0

    # -- basics ----------------------------------------------------------------
    def __len__(self) -> int:
        return _size(self._root)

    def __bool__(self) -> bool:
        return self._root is not None

    def __iter__(self) -> Iterator[RangeTreeNode]:
        """In-order (descending value) iteration via the threading."""
        node = self.min_node()
        while node is not None:
            yield node
            node = node.next

    def values(self) -> list[float]:
        return [n.value for n in self]

    def min_node(self) -> Optional[RangeTreeNode]:
        """The rank-1 node (largest value), or ``None`` if empty."""
        t = self._root
        if t is None:
            return None
        while t.left is not None:
            t = t.left
        return t

    def max_node(self) -> Optional[RangeTreeNode]:
        """The rank-N node (smallest value), or ``None`` if empty."""
        t = self._root
        if t is None:
            return None
        while t.right is not None:
            t = t.right
        return t

    # -- aggregate maintenance ---------------------------------------------------
    @staticmethod
    def _pull(t: RangeTreeNode) -> None:
        ls, l_sum, l_w = _size(t.left), _sum(t.left), _wsum(t.left)
        rs, r_sum, r_w = _size(t.right), _sum(t.right), _wsum(t.right)
        t.size = ls + 1 + rs
        t.sum = l_sum + t.value + r_sum
        # in-order position of t within its subtree is ls+1; every node in the
        # right subtree shifts by ls+1.
        t.wsum = l_w + (ls + 1) * t.value + r_w + (ls + 1) * r_sum

    def _pull_to_root(self, t: Optional[RangeTreeNode]) -> None:
        while t is not None:
            self._pull(t)
            t = t.parent

    # -- rotations ---------------------------------------------------------------
    def _rotate_up(self, x: RangeTreeNode) -> None:
        """Rotate ``x`` above its parent, preserving in-order order."""
        p = x.parent
        assert p is not None
        g = p.parent
        if p.left is x:
            p.left = x.right
            if x.right is not None:
                x.right.parent = p
            x.right = p
        else:
            p.right = x.left
            if x.left is not None:
                x.left.parent = p
            x.left = p
        p.parent = x
        x.parent = g
        if g is None:
            self._root = x
        elif g.left is p:
            g.left = x
        else:
            g.right = x
        self._pull(p)
        self._pull(x)

    # -- insert --------------------------------------------------------------------
    def insert(self, value: float, payload: Any = None) -> RangeTreeNode:
        """Insert ``value``; returns the new node. Expected ``O(log N)``."""
        self._seq += 1
        # descending by value: key ascends as (-value, seq)
        key = (-float(value), self._seq)
        node = RangeTreeNode(float(value), payload, key, self._rng.random())
        node._tree = self

        if self._root is None:
            self._root = node
            return node

        # BST descent, remembering the in-order neighbours.
        cur = self._root
        pred: Optional[RangeTreeNode] = None
        succ: Optional[RangeTreeNode] = None
        while True:
            if key < cur._key:
                succ = cur
                if cur.left is None:
                    cur.left = node
                    node.parent = cur
                    break
                cur = cur.left
            else:
                pred = cur
                if cur.right is None:
                    cur.right = node
                    node.parent = cur
                    break
                cur = cur.right

        # thread the doubly linked list
        node.prev = pred
        node.next = succ
        if pred is not None:
            pred.next = node
        if succ is not None:
            succ.prev = node

        self._pull_to_root(node.parent)
        # restore the heap property on priorities (min-heap)
        while node.parent is not None and node._prio < node.parent._prio:
            self._rotate_up(node)
        return node

    # -- delete ----------------------------------------------------------------------
    def delete(self, node: RangeTreeNode) -> None:
        """Remove ``node`` from the tree. Expected ``O(log N)``."""
        if node._tree is not self:
            raise ValueError("node does not belong to this tree")
        # rotate down to a leaf
        while node.left is not None or node.right is not None:
            if node.left is None:
                child = node.right
            elif node.right is None:
                child = node.left
            else:
                child = node.left if node.left._prio < node.right._prio else node.right
            assert child is not None
            self._rotate_up(child)
        p = node.parent
        if p is None:
            self._root = None
        elif p.left is node:
            p.left = None
        else:
            p.right = None
        self._pull_to_root(p)

        # unthread
        if node.prev is not None:
            node.prev.next = node.next
        if node.next is not None:
            node.next.prev = node.prev
        node.prev = node.next = node.parent = None
        node._tree = None

    # -- order statistics ----------------------------------------------------------
    def rank(self, node: RangeTreeNode) -> int:
        """1-based in-order rank of ``node`` (rank 1 = largest value)."""
        if node._tree is not self:
            raise ValueError("node does not belong to this tree")
        r = _size(node.left) + 1
        cur = node
        while cur.parent is not None:
            if cur.parent.right is cur:
                r += _size(cur.parent.left) + 1
            cur = cur.parent
        return r

    def select(self, k: int) -> RangeTreeNode:
        """The node of rank ``k`` (1-based). Raises ``IndexError`` if out of range."""
        if not (1 <= k <= len(self)):
            raise IndexError(f"rank {k} out of range [1, {len(self)}]")
        t = self._root
        while True:
            assert t is not None
            ls = _size(t.left)
            if k == ls + 1:
                return t
            if k <= ls:
                t = t.left
            else:
                k -= ls + 1
                t = t.right

    def count_ge(self, value: float) -> int:
        """Number of stored values ``>= value``. ``O(log N)``.

        A new ``value`` sorts after its equals, so it would take rank
        ``count_ge(value) + 1``.
        """
        value = float(value)
        t, count = self._root, 0
        while t is not None:
            if t.value >= value:
                count += _size(t.left) + 1
                t = t.right
            else:
                t = t.left
        return count

    # -- range aggregates (Equations 28-30) ---------------------------------------
    def range_sum(self, a: int, b: int) -> float:
        """``ξ([a,b]) = Σ_{k=a..b} value_k`` over ranks; 0 if the interval is empty."""
        s, _ = self._range_query(a, b)
        return s

    def range_delta(self, a: int, b: int) -> float:
        """``Δ([a,b]) = Σ_{k=a..b} (k-a+1)·value_k``; 0 if the interval is empty."""
        s, g = self._range_query(a, b)
        # g = Σ k·value_k with global ranks; shift to make position a count as 1.
        return g - (a - 1) * s

    def range_gamma(self, a: int, b: int) -> float:
        """``γ([a,b]) = Σ_{k=a..b} k·value_k = Δ + (a-1)·ξ`` (Equation 30)."""
        _, g = self._range_query(a, b)
        return g

    def _range_query(self, a: int, b: int) -> tuple[float, float]:
        """Return ``(Σ v_k, Σ k·v_k)`` over global ranks ``k ∈ [a, b]``."""
        if a < 1:
            a = 1
        n = len(self)
        if b > n:
            b = n
        if a > b or self._root is None:
            return 0.0, 0.0
        return self._query(self._root, a, b, 0)

    def _query(
        self, t: Optional[RangeTreeNode], a: int, b: int, offset: int
    ) -> tuple[float, float]:
        """Aggregate over nodes of ``t`` whose global rank (offset + local) is in [a, b]."""
        if t is None:
            return 0.0, 0.0
        lo = offset + 1
        hi = offset + t.size
        if a <= lo and hi <= b:
            # whole subtree: Σ v = t.sum ; Σ (global k)·v = t.wsum + offset·t.sum
            return t.sum, t.wsum + offset * t.sum
        s = 0.0
        g = 0.0
        my_rank = offset + _size(t.left) + 1
        if a < my_rank:  # left subtree may intersect
            ls, lg = self._query(t.left, a, b, offset)
            s += ls
            g += lg
        if a <= my_rank <= b:
            s += t.value
            g += my_rank * t.value
        if b > my_rank:  # right subtree may intersect
            rs, rg = self._query(t.right, a, b, my_rank)
            s += rs
            g += rg
        return s, g

    # -- invariant checking (used by tests) ------------------------------------------
    def check_invariants(self) -> None:
        """Verify BST order, heap priorities, aggregates, and threading.

        ``O(N)``; intended for tests only.
        """
        nodes = self._collect(self._root, None)
        # threading must visit the same nodes in the same order
        threaded = list(self)
        assert [id(n) for n in nodes] == [id(n) for n in threaded], "threading out of sync"
        for i, n in enumerate(nodes):
            expected_prev = nodes[i - 1] if i > 0 else None
            expected_next = nodes[i + 1] if i + 1 < len(nodes) else None
            assert n.prev is expected_prev, "prev pointer broken"
            assert n.next is expected_next, "next pointer broken"

    def _collect(
        self, t: Optional[RangeTreeNode], parent: Optional[RangeTreeNode]
    ) -> list[RangeTreeNode]:
        if t is None:
            return []
        assert t.parent is parent, "parent pointer broken"
        if parent is not None:
            assert t._prio >= parent._prio, "treap priority order broken"
        left = self._collect(t.left, t)
        right = self._collect(t.right, t)
        if left:
            assert left[-1]._key < t._key, "BST order broken (left)"
        if right:
            assert t._key < right[0]._key, "BST order broken (right)"
        assert t.size == len(left) + 1 + len(right), "size aggregate broken"
        total = sum(n.value for n in left) + t.value + sum(n.value for n in right)
        assert abs(t.sum - total) < AGG_REL_TOL * max(1.0, abs(total)), "sum aggregate broken"
        seq = left + [t] + right
        w = sum((i + 1) * n.value for i, n in enumerate(seq))
        assert abs(t.wsum - w) < AGG_REL_TOL * max(1.0, abs(w)), "wsum aggregate broken"
        return seq
