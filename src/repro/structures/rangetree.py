"""The 1D range tree of Section IV-A.

The paper's dynamic-scheduling structure is "basically a balanced
binary search tree, with each node keeping (1) the number of nodes,
(2) ξ, (3) Δ, of its subtree". We realise it as a **treap** (randomised
balanced BST) ordered by **descending cycle count**, so the node of
rank ``k`` holds ``L^B_k`` — the ``k``-th largest task, i.e. the task
at backward position ``k`` in the cost-optimal queue. A node keeps
``size`` and ``ξ`` only: Algorithms 5 and 6 keep each range's ``Δ``
themselves, so ``range_delta`` walks the threading instead.

Supported operations (``N`` = number of stored tasks):

* ``insert(value, payload)`` → node, ``O(log N)`` expected; ``value``
  must be finite (``ValueError`` otherwise);
* ``insert_ranked(value, payload)`` → ``(node, rank, tail)``: the same
  insert, which also reads the new node's rank and the sum of the
  values after it off its BST descent;
* ``delete(node)``, ``O(log N)`` expected;
* ``size`` (also ``len(tree)``) — the node count, a plain attribute
  read in ``Θ(1)``;
* ``rank(node)`` — 1-based rank, ``O(log N)``; ``Θ(1)`` for the last
  node (the queue head), whose rank is ``N``;
* ``select(k)`` — node of rank ``k``, ``O(log N)``;
* ``count_ge(value)`` — how many stored values are ``>= value``,
  ``O(log N)``;
* ``count_ge_tail(value)`` — ``count_ge(value)`` and the sum of the
  stored values ``< value`` in one read-only descent, ``O(log N)``;
* ``range_sum(a, b)`` — ``ξ([a,b]) = Σ_{k=a..b} L^B_k`` (Equation 28),
  ``O(log N)``;
* ``range_delta(a, b)`` — ``Δ([a,b]) = Σ_{k=a..b} (k-a+1)·L^B_k``
  (Equation 29), ``O(log N + b - a)``: a walk along the threading;
* ``node.prev`` / ``node.next`` — ``Θ(1)`` predecessor/successor via
  doubly-linked threading, as the paper requires for the improved
  ``O(|P̂| + log N)`` maintenance;
* ``max_node()`` — the rank-``N`` node (the queue head), ``Θ(1)``: the
  tree keeps the threaded last node.

Duplicate values are allowed; ties are broken by insertion sequence so
the order is total and deterministic.

Pull discipline
---------------
A node's aggregates ``(size, sum)`` come from its children by one
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
fully covered child's stored ``sum``: a node's own ``value`` after its
left part and before its right part, the order in which the pull builds
``sum``.

Descent reads
-------------
``count_ge_tail`` and ``insert_ranked`` take a suffix sum on the value
descent they already make. A node the descent leaves to the left lies
after the searched position, and so does its right subtree. The descent
remembers those nodes and then folds them bottom-up, each adding
``value`` and then its right child's ``sum``. That is the order in which
``range_sum`` adds the same suffix, and a fully covered subtree's stored
``sum`` is itself that fold of its left spine (the pull formula), so
``count_ge_tail(v)[1] == range_sum(count_ge(v) + 1, N)`` bit for bit.
For ``insert_ranked`` the fold runs over the tree before the insert;
the rotations rebuild the folded nodes into the new node's right
subtree with the same pulls, so its ``tail`` equals
``range_sum(rank + 1, N)`` on the tree after the insert.
"""

from __future__ import annotations

import math
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
        #: The threaded last node (rank ``N``), kept by ``insert``/``delete``.
        self._last: Optional[RangeTreeNode] = None
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
        return self._walk(self.min_node())

    @staticmethod
    def _walk(node: Optional[RangeTreeNode]) -> Iterator[RangeTreeNode]:
        """``node`` and every node after it, along the threading."""
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
        """The rank-N node (smallest value), or ``None`` if empty. ``Θ(1)``."""
        return self._last

    # -- aggregate maintenance ---------------------------------------------------
    @staticmethod
    def _pull(t: RangeTreeNode) -> None:
        """Recompute ``t``'s aggregates from its children.

        ``sum = left.sum + v + right.sum``, added left to right. An absent
        child's term is skipped rather than added as ``0.0``, which
        rounds identically (``x + 0.0 == x``).
        """
        left, right = t.left, t.right
        if left is None:
            k, s = 1, t.value
        else:
            k, s = left.size + 1, left.sum + t.value
        if right is None:
            t.size, t.sum = k, s
        else:
            t.size, t.sum = k + right.size, s + right.sum

    @staticmethod
    def _pull_to_root(t: Optional[RangeTreeNode]) -> None:
        """:meth:`_pull` ``t`` and each of its ancestors, bottom-up.

        The pull formula is inlined: the same additions in the same order.
        """
        while t is not None:
            left, right = t.left, t.right
            if left is None:
                k, s = 1, t.value
            else:
                k, s = left.size + 1, left.sum + t.value
            if right is None:
                t.size, t.sum = k, s
            else:
                t.size, t.sum = k + right.size, s + right.sum
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
        """Insert ``value``; returns the new node. Expected ``O(log N)``.

        Raises ``ValueError`` if ``value`` is NaN or infinite: neither
        has a place in the descending order the queries rely on.
        """
        return self.insert_ranked(value, payload)[0]

    def insert_ranked(self, value: float, payload: Any = None) -> tuple[RangeTreeNode, int, float]:
        """:meth:`insert`, returning ``(node, rank, tail)``.

        ``rank`` is the new node's 1-based rank and ``tail`` the sum of
        the values ranked after it, both read off the BST descent:
        ``rank == rank(node)`` and ``tail == range_sum(rank + 1, N)``
        bit for bit (see "Descent reads" in the module docstring).
        Expected ``O(log N)``.
        """
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"range tree values must be finite, got {value!r}")
        self._seq += 1
        # descending by value: key ascends as (-value, seq)
        node = RangeTreeNode(value, payload, (-value, self._seq), self._rng.random())
        node._tree = self
        self.size += 1

        cur = self._root
        if cur is None:
            self._root = self._last = node
            return node, 1, 0.0

        # BST descent, remembering the in-order neighbours. The new node has
        # the largest sequence number, so ``key < cur._key`` is
        # ``value > cur.value``; the nodes it passes on the left follow it.
        pred: Optional[RangeTreeNode] = None
        succ: Optional[RangeTreeNode] = None
        rank = 1
        after: list[RangeTreeNode] = []
        while True:
            if value > cur.value:
                succ = cur
                after.append(cur)
                if cur.left is None:
                    cur.left = node
                    break
                cur = cur.left
            else:
                pred = cur
                left = cur.left
                rank += left.size + 1 if left is not None else 1
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
        else:
            self._last = node

        # restore the heap property on priorities (min-heap); each demoted
        # parent's children are final once it is demoted
        prio, pull = node._prio, self._pull
        p: Optional[RangeTreeNode] = cur
        while p is not None and prio < p._prio:
            self._lift(node, p)
            pull(p)
            p = node.parent
        self._pull_to_root(node)
        return node, rank, self._fold_tail(after)

    @staticmethod
    def _fold_tail(after: list[RangeTreeNode]) -> float:
        """Sum the nodes a descent left to the left, with their right subtrees.

        ``after`` runs top-down; the fold runs bottom-up, adding each
        node's ``value`` and then its right child's ``sum``, which is
        ``range_sum``'s order for the same suffix.
        """
        tail = 0.0
        for t in reversed(after):
            tail += t.value
            right = t.right
            if right is not None:
                tail += right.sum
        return tail

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
        else:
            self._last = node.prev
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

    def count_ge_tail(self, value: float) -> tuple[int, float]:
        """``(count_ge(value), Σ of the stored values < value)`` in one descent.

        The sum is ``range_sum(count_ge(value) + 1, N)`` bit for bit (see
        "Descent reads" in the module docstring). Read-only, ``O(log N)``.
        """
        value = float(value)
        t, count = self._root, 0
        after: list[RangeTreeNode] = []
        while t is not None:
            if t.value >= value:
                left = t.left
                count += left.size + 1 if left is not None else 1
                t = t.right
            else:
                after.append(t)
                t = t.left
        return count, self._fold_tail(after)

    # -- range aggregates (Equations 28-29) ---------------------------------------
    def range_sum(self, a: int, b: int) -> float:
        """``ξ([a,b]) = Σ_{k=a..b} value_k`` over ranks; 0 if the interval is empty.

        Ranks are clamped to ``[1, N]``; the whole tree is ``root.sum``.
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
        ``[a, b]`` without lying inside it. The left part, ``t.value`` and
        the right part are added in that order: a fully covered child adds
        its stored ``sum`` and an absent child adds nothing.
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
        """``Δ([a,b]) = Σ_{k=a..b} (k-a+1)·value_k``; 0 if the interval is empty.

        Ranks are clamped to ``[1, N]``. ``select(a)`` and a walk of
        ``b-a+1`` threaded nodes, summed with ``math.fsum``:
        ``O(log N + b - a)``, and within ``2⁻⁵²`` of the exact ``Δ``,
        relative, for positive values. ``γ`` (Equation 30) is
        ``range_delta(a, b) + (a-1)·range_sum(a, b)``.
        """
        a, b = max(a, 1), min(b, self.size)
        if a > b:
            return 0.0
        walk = zip(range(1, b - a + 2), self._walk(self.select(a)))
        return math.fsum(w * n.value for w, n in walk)

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
        assert self._last is (nodes[-1] if nodes else None), "last node out of sync"  # repro-lint: disable=RP008 -- invariant audit; callers catch AssertionError
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
        return left + [t] + right
