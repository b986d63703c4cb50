"""Bit-exactness of the range tree's lean paths, compared with ``==``.

* ``range_sum`` (the sum-only query) against the ``(Σ v, Σ k·v)``
  query behind ``range_delta``;
* every node's ``(size, sum, wsum)`` against a fresh bottom-up
  recomputation, plus pinned preorder snapshots of a seeded churn;
* the ``Θ(1)`` rank of the last node against a walk to the root.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dynamic import DynamicCostIndex
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II
from repro.structures.rangetree import RangeTree

# A few repeated values force ties; the wide float range makes the
# rounding of every addition order-sensitive.
values = st.one_of(
    st.sampled_from([1.0, 2.5, 7.25, 1e10]),
    st.floats(min_value=1e-3, max_value=1e12, allow_nan=False, allow_infinity=False),
)


def _fresh(t):
    """``(size, sum, wsum)`` of ``t``'s subtree, recomputed bottom-up by the pull formula."""
    if t is None:
        return 0, 0.0, 0.0
    ls, lsum, lw = _fresh(t.left)
    rs, rsum, rw = _fresh(t.right)
    k = ls + 1
    return ls + 1 + rs, lsum + t.value + rsum, lw + k * t.value + rw + k * rsum


def _assert_aggregates_fresh(tree):
    stack = [tree._root]
    while stack:
        t = stack.pop()
        if t is None:
            continue
        assert (t.size, t.sum, t.wsum) == _fresh(t), t.value
        stack.extend((t.left, t.right))


def _churn(draw, n_ops=3000, seed=2024):
    """A seeded 60/40 insert/delete mix."""
    rng = random.Random(seed)
    tree = RangeTree(seed=77)
    nodes = []
    for _ in range(n_ops):
        if nodes and rng.random() < 0.4:
            tree.delete(nodes.pop(rng.randrange(len(nodes))))
        else:
            nodes.append(tree.insert(draw(rng)))
    return tree


def _preorder_digest(tree, fields):
    rows, stack = [], [tree._root]
    while stack:
        t = stack.pop()
        if t is None:
            continue
        rows.append(tuple(fields(t)))
        stack.append(t.right)
        stack.append(t.left)
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _walk_rank(node):
    """Rank by walking to the root, as ``rank`` does for inner nodes."""
    r = (node.left.size if node.left is not None else 0) + 1
    while node.parent is not None:
        if node.parent.right is node:
            r += (node.parent.left.size if node.parent.left is not None else 0) + 1
        node = node.parent
    return r


class TestRangeSum:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(values, max_size=40), st.lists(st.integers(0, 39), max_size=10))
    def test_matches_full_query_bitwise(self, vals, deletions):
        tree = RangeTree(seed=5)
        nodes = [tree.insert(v) for v in vals]
        for i in deletions:
            if i < len(nodes):
                tree.delete(nodes.pop(i))
        n = len(tree)
        # every interval, including clamped (a < 1, b > n) and empty (a > b) ones
        for a in range(-1, n + 3):
            for b in range(a - 2, n + 3):
                assert tree.range_sum(a, b) == tree._range_query(a, b)[0], (a, b)

    def test_whole_tree_is_root_sum(self):
        tree = RangeTree()
        for v in (3.5, 1e-3, 7.25, 7.25, 1e9):
            tree.insert(v)
        assert tree.range_sum(1, 5) == tree.range_sum(-4, 99) == tree._root.sum

    def test_empty_tree(self):
        assert RangeTree().range_sum(1, 3) == 0.0


class TestPullDiscipline:
    def test_aggregates_equal_fresh_recomputation(self):
        tree = _churn(lambda rng: rng.choice((rng.uniform(0.1, 50.0), rng.uniform(1e9, 3e10), 7.25)))
        tree.check_invariants()
        _assert_aggregates_fresh(tree)

    def test_every_step_of_a_small_churn(self):
        rng = random.Random(3)
        tree = RangeTree(seed=3)
        nodes = []
        for _ in range(400):
            if nodes and rng.random() < 0.45:
                tree.delete(nodes.pop(rng.randrange(len(nodes))))
            else:
                nodes.append(tree.insert(rng.uniform(0.1, 50.0)))
            _assert_aggregates_fresh(tree)

    def test_integer_churn_snapshot(self):
        # Integer cycle counts below 2**53 make every addition exact, so
        # any pull order gives these bits: the digest, recorded with the
        # earlier rotate-and-pull code, pins shape, threading order,
        # priorities and all three aggregates.
        tree = _churn(lambda rng: float(rng.randrange(1, 10**9)))
        digest = _preorder_digest(
            tree, lambda t: (t.value, t._key[1], t._prio, t.size, t.sum, t.wsum))
        assert len(tree) == 578
        assert digest == "6c1b2727fcbeb9a8b9151f629c10770f446572d46d9ecbb0f95c3a0ac4998373"

    def test_float_churn_shape_snapshot(self):
        # With general floats the sums round; their bits are pinned by
        # test_aggregates_equal_fresh_recomputation given this shape.
        tree = _churn(lambda rng: rng.choice((rng.uniform(0.1, 50.0), rng.uniform(1e9, 3e10), 7.25)))
        digest = _preorder_digest(tree, lambda t: (t.value, t._key[1], t._prio, t.size))
        assert len(tree) == 712
        assert digest == "f6a916d950538a8ed2be6a1427bde148d9ef0bacb93670b9f78f4d5a176c8372"


class TestTailRank:
    def test_tail_rank_and_rate(self):
        q = DynamicCostIndex(CostModel(TABLE_II, 0.4, 0.1))
        rng = random.Random(11)
        nodes = []
        for step in range(600):
            if nodes and rng.random() < 0.35:
                q.delete(nodes.pop(rng.randrange(len(nodes))))
            else:
                nodes.append(q.insert(rng.choice((rng.uniform(1.0, 100.0), 5.0))))
            tail = q.head()  # the last node: smallest value, the queue head
            if tail is None:
                continue
            assert tail.next is None
            assert q.tree.rank(tail) == _walk_rank(tail) == len(q)
            assert q.rate_of(tail) == q.ranges.rate_for(_walk_rank(tail))
            inner = nodes[step % len(nodes)]
            assert q.tree.rank(inner) == _walk_rank(inner)
        assert [q.tree.rank(n) for n in q.tree] == list(range(1, len(q) + 1))

    def test_detached_tail_is_rejected(self):
        tree = RangeTree()
        tree.insert(2.0)
        tail = tree.insert(1.0)
        tree.delete(tail)
        assert tail.next is None
        with pytest.raises(ValueError, match="does not belong"):
            tree.rank(tail)
