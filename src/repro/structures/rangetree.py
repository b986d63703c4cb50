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
* ``size`` (also ``len(tree)``) — the node count, a plain attribute
  read in ``Θ(1)``;
* ``rank(node)`` — 1-based rank, ``O(log N)``; ``Θ(1)`` for the last
  node (the queue head), whose rank is ``N``;
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

Pull discipline
---------------
A node's aggregates ``(size, sum, wsum)`` come from its children by one
fixed formula (:meth:`RangeTree._pull`). Every mutation re-pulls a node
only once its children are final, and bottom-up: ``insert`` rotates the
new leaf up pulling each demoted parent, then makes one
:meth:`~RangeTree._pull_to_root` from the new node; ``delete`` rotates
the node down to a leaf by pointer surgery alone, unlinks it, then makes
one ``_pull_to_root`` from the leaf's parent. So every node's aggregates
always equal a fresh bottom-up recomputation over the current shape. A
treap's shape is unique for given keys and (distinct, random)
priorities, so the aggregates — bit for bit, float rounding included —
are a pure function of the stored ``(value, sequence, priority)``
triples, not of the order of the operations that built the tree.

``range_sum`` walks only the boundary paths of ``[a, b]`` and adds a
fully covered child's stored ``sum``; it makes the same additions in the
same order as the ``(Σ v, Σ k·v)`` query behind ``range_delta``, so the
two agree bit for bit on the sum.
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
        #: Number of stored nodes, kept by ``insert``/``delete``: an
        #: ``O(1)`` read with no call (hot callers read it directly).
        self.size = 0

    # -- basics ----------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

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
        """Recompute ``t``'s aggregates from its children.

        The in-order position of ``t`` within its subtree is ``k = |left| + 1``
        and every node of the right subtree shifts by ``k``, so
        ``wsum = left.wsum + k·v + right.wsum + k·right.sum``. An absent
        child's terms are skipped rather than added as ``0.0``, which
        rounds identically (``x + 0.0 == x``).
        """
        left, right, v = t.left, t.right, t.value
        if left is None:
            k, s, w = 1, v, v
        else:
            k = left.size + 1
            s = left.sum + v
            w = left.wsum + k * v
        if right is None:
            t.size, t.sum, t.wsum = k, s, w
        else:
            t.size = k + right.size
            t.sum = s + right.sum
            t.wsum = w + right.wsum + k * right.sum

    def _pull_to_root(self, t: Optional[RangeTreeNode]) -> None:
        pull = self._pull
        while t is not None:
            pull(t)
            t = t.parent

    # -- rotations ---------------------------------------------------------------
    def _lift(self, x: RangeTreeNode, p: RangeTreeNode) -> None:
        """Rotate ``x`` above its parent ``p``, preserving in-order order.

        Pointer surgery only: the caller re-pulls ``p`` and ``x`` (and the
        path above) once their children are final.
        """
        g = p.parent
        if p.left is x:
            c = p.left = x.right
            x.right = p
        else:
            c = p.right = x.left
            x.left = p
        if c is not None:
            c.parent = p
        p.parent = x
        x.parent = g
        if g is None:
            self._root = x
        elif g.left is p:
            g.left = x
        else:
            g.right = x

    # -- insert --------------------------------------------------------------------
    def insert(self, value: float, payload: Any = None) -> RangeTreeNode:
        """Insert ``value``; returns the new node. Expected ``O(log N)``."""
        self._seq += 1
        # descending by value: key ascends as (-value, seq)
        key = (-float(value), self._seq)
        node = RangeTreeNode(float(value), payload, key, self._rng.random())
        node._tree = self
        self.size += 1

        cur = self._root
        if cur is None:
            self._root = node
            return node

        # BST descent, remembering the in-order neighbours.
        pred: Optional[RangeTreeNode] = None
        succ: Optional[RangeTreeNode] = None
        while True:
            if key < cur._key:
                succ = cur
                if cur.left is None:
                    cur.left = node
                    break
                cur = cur.left
            else:
                pred = cur
                if cur.right is None:
                    cur.right = node
                    break
                cur = cur.right
        node.parent = cur

        # thread the doubly linked list
        node.prev = pred
        node.next = succ
        if pred is not None:
            pred.next = node
        if succ is not None:
            succ.prev = node

        # restore the heap property on priorities (min-heap); each demoted
        # parent's children are final once it is demoted
        prio, pull = node._prio, self._pull
        p: Optional[RangeTreeNode] = cur
        while p is not None and prio < p._prio:
            self._lift(node, p)
            pull(p)
            p = node.parent
        self._pull_to_root(node)
        return node

    # -- delete ----------------------------------------------------------------------
    def delete(self, node: RangeTreeNode) -> None:
        """Remove ``node`` from the tree. Expected ``O(log N)``."""
        if node._tree is not self:
            raise ValueError("node does not belong to this tree")
        # rotate down to a leaf, lifting the child with the smaller priority
        while True:
            left, right = node.left, node.right
            if left is None:
                if right is None:
                    break
                self._lift(right, node)
            elif right is None or left._prio < right._prio:
                self._lift(left, node)
            else:
                self._lift(right, node)
        p = node.parent
        if p is None:
            self._root = None
        elif p.left is node:
            p.left = None
        else:
            p.right = None
        # every node whose children changed lies on this path
        self._pull_to_root(p)

        # unthread
        if node.prev is not None:
            node.prev.next = node.next
        if node.next is not None:
            node.next.prev = node.prev
        node.prev = node.next = node.parent = None
        node._tree = None
        self.size -= 1

    # -- order statistics ----------------------------------------------------------
    def rank(self, node: RangeTreeNode) -> int:
        """1-based in-order rank of ``node`` (rank 1 = largest value).

        ``Θ(1)`` for the last node (``node.next is None``), whose rank is
        ``N``; ``O(log N)`` otherwise.
        """
        if node._tree is not self:
            raise ValueError("node does not belong to this tree")
        if node.next is None:
            return self.size
        left = node.left
        r = left.size + 1 if left is not None else 1
        cur, p = node, node.parent
        while p is not None:
            if p.right is cur:
                left = p.left
                r += left.size + 1 if left is not None else 1
            cur, p = p, p.parent
        return r

    def select(self, k: int) -> RangeTreeNode:
        """The node of rank ``k`` (1-based). Raises ``IndexError`` if out of range."""
        want, t = k, self._root
        while t is not None:
            left = t.left
            ls = left.size if left is not None else 0
            if k <= ls:
                t = left
            elif k == ls + 1:
                return t
            else:
                k -= ls + 1
                t = t.right
        raise IndexError(f"rank {want} out of range [1, {len(self)}]")

    def count_ge(self, value: float) -> int:
        """Number of stored values ``>= value``. ``O(log N)``.

        A new ``value`` sorts after its equals, so it would take rank
        ``count_ge(value) + 1``.
        """
        value = float(value)
        t, count = self._root, 0
        while t is not None:
            if t.value >= value:
                left = t.left
                count += left.size + 1 if left is not None else 1
                t = t.right
            else:
                t = t.left
        return count

    # -- range aggregates (Equations 28-30) ---------------------------------------
    def range_sum(self, a: int, b: int) -> float:
        """``ξ([a,b]) = Σ_{k=a..b} value_k`` over ranks; 0 if the interval is empty.

        Bit-identical to ``_range_query(a, b)[0]`` without building the
        ``Σ k·v`` half; the whole tree is ``root.sum``.
        """
        t = self._root
        if t is None:
            return 0.0
        if a < 1:
            a = 1
        n = t.size
        if b > n:
            b = n
        if a > b:
            return 0.0
        if a == 1 and b == n:
            return t.sum
        return self._sum_query(t, a, b, 0)

    def _sum_query(self, t: RangeTreeNode, a: int, b: int, offset: int) -> float:
        """``Σ v`` over the nodes of ``t`` whose global rank is in ``[a, b]``.

        ``t`` spans ranks ``offset+1 .. offset+t.size``, which meet
        ``[a, b]`` without lying inside it. The sum half of :meth:`_query`,
        addition for addition: a fully covered child adds its stored
        ``sum`` (what ``_query`` would return for it) and an absent child
        adds nothing (``x + 0.0 == x``).
        """
        left = t.left
        my_rank = offset + 1
        s = 0.0
        if left is not None:
            my_rank += left.size
            if a < my_rank:  # left subtree (ranks offset+1 .. my_rank-1) intersects
                if a <= offset + 1 and my_rank <= b + 1:
                    s += left.sum
                else:
                    s += self._sum_query(left, a, b, offset)
        if a <= my_rank <= b:
            s += t.value
        right = t.right
        if right is not None and b > my_rank:  # right subtree intersects
            if a <= my_rank + 1 and my_rank + right.size <= b:
                s += right.sum
            else:
                s += self._sum_query(right, a, b, my_rank)
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
        n = self.size
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
        left = t.left
        my_rank = offset + (left.size if left is not None else 0) + 1
        if a < my_rank:  # left subtree may intersect
            ls, lg = self._query(left, a, b, offset)
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
        assert self.size == len(nodes), "size counter out of sync"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
        # threading must visit the same nodes in the same order
        threaded = list(self)
        assert [id(n) for n in nodes] == [id(n) for n in threaded], "threading out of sync"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
        for i, n in enumerate(nodes):
            expected_prev = nodes[i - 1] if i > 0 else None
            expected_next = nodes[i + 1] if i + 1 < len(nodes) else None
            assert n.prev is expected_prev, "prev pointer broken"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
            assert n.next is expected_next, "next pointer broken"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError

    def _collect(
        self, t: Optional[RangeTreeNode], parent: Optional[RangeTreeNode]
    ) -> list[RangeTreeNode]:
        if t is None:
            return []
        assert t.parent is parent, "parent pointer broken"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
        if parent is not None:
            assert t._prio >= parent._prio, "treap priority order broken"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
        left = self._collect(t.left, t)
        right = self._collect(t.right, t)
        if left:
            assert left[-1]._key < t._key, "BST order broken (left)"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
        if right:
            assert t._key < right[0]._key, "BST order broken (right)"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
        assert t.size == len(left) + 1 + len(right), "size aggregate broken"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
        total = sum(n.value for n in left) + t.value + sum(n.value for n in right)
        assert abs(t.sum - total) < AGG_REL_TOL * max(1.0, abs(total)), "sum aggregate broken"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
        seq = left + [t] + right
        w = sum((i + 1) * n.value for i, n in enumerate(seq))
        assert abs(t.wsum - w) < AGG_REL_TOL * max(1.0, abs(w)), "wsum aggregate broken"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
        return seq
