"""Bit-exactness of the range tree's lean paths, compared with ``==``.

* ``range_sum`` against a plain covered-subtree recursion (the oracle);
* ``range_delta`` against an exact ``Fraction`` Δ, to within ``2⁻⁵²``;
* every node's ``(size, sum)`` against a fresh bottom-up
  recomputation, plus pinned preorder snapshots of a seeded churn;
* the ``Θ(1)`` rank of the last node against a walk to the root.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

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
    """``(size, sum)`` of ``t``'s subtree, recomputed bottom-up by the pull formula."""
    if t is None:
        return 0, 0.0
    ls, lsum = _fresh(t.left)
    rs, rsum = _fresh(t.right)
    return ls + 1 + rs, lsum + t.value + rsum


def _assert_aggregates_fresh(tree):
    stack = [tree._root]
    while stack:
        t = stack.pop()
        if t is None:
            continue
        assert (t.size, t.sum) == _fresh(t), t.value
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


def _oracle_sum(tree, a, b):
    """``Σ v`` over ranks ``[a, b]`` (clamped) by the plain recursion."""
    a, b = max(a, 1), min(b, len(tree))
    if a > b or tree._root is None:
        return 0.0
    return _query_sum(tree._root, a, b, 0)


def _query_sum(t, a, b, offset):
    """A subtree inside ``[a, b]`` returns its stored ``sum``; any other
    splits into left part, own value, right part, added in that order."""
    if t is None:
        return 0.0
    if a <= offset + 1 and offset + t.size <= b:
        return t.sum
    s = 0.0
    my_rank = offset + (t.left.size if t.left is not None else 0) + 1
    if a < my_rank:
        s += _query_sum(t.left, a, b, offset)
    if a <= my_rank <= b:
        s += t.value
    if b > my_rank:
        s += _query_sum(t.right, a, b, my_rank)
    return s


def _built(vals, deletions):
    tree = RangeTree(seed=5)
    nodes = [tree.insert(v) for v in vals]
    for i in deletions:
        if i < len(nodes):
            tree.delete(nodes.pop(i))
    return tree


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
        tree = _built(vals, deletions)
        n = len(tree)
        # every interval, including clamped (a < 1, b > n) and empty (a > b) ones
        for a in range(-1, n + 3):
            for b in range(a - 2, n + 3):
                assert tree.range_sum(a, b) == _oracle_sum(tree, a, b), (a, b)

    def test_whole_tree_is_root_sum(self):
        tree = RangeTree()
        for v in (3.5, 1e-3, 7.25, 7.25, 1e9):
            tree.insert(v)
        assert tree.range_sum(1, 5) == tree.range_sum(-4, 99) == tree._root.sum

    def test_empty_tree(self):
        assert RangeTree().range_sum(1, 3) == 0.0


class TestRangeDelta:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(values, max_size=40), st.lists(st.integers(0, 39), max_size=10))
    @example([1.0] * 4 + [1e10], [])  # a < 1 must shift by the clamped a
    @example([665653866777.5881, 239341611453.63385, 2.5, 1.0, 515253440959.0555], [])
    def test_within_an_ulp_of_exact(self, vals, deletions):
        """``|Δ − exact| <= 2⁻⁵²·exact`` on every interval, clamped and empty
        ones included; an empty interval is exactly 0.0."""
        tree = _built(vals, deletions)
        n = len(tree)
        # exact prefix sums of v and of k·v over the descending ranks
        pre_s, pre_g = [Fraction(0)], [Fraction(0)]
        for k, v in enumerate(tree.values(), start=1):
            pre_s.append(pre_s[-1] + Fraction(v))
            pre_g.append(pre_g[-1] + k * Fraction(v))
        for a in range(-1, n + 3):
            for b in range(a - 2, n + 3):
                lo, hi = max(a, 1), min(b, n)
                exact = Fraction(0)
                if lo <= hi:
                    exact = pre_g[hi] - pre_g[lo - 1] - (lo - 1) * (pre_s[hi] - pre_s[lo - 1])
                err = abs(Fraction(tree.range_delta(a, b)) - exact)
                assert err <= Fraction(1, 2**52) * exact, (a, b)


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
        # earlier three-aggregate code, pins shape, threading order,
        # priorities and both aggregates.
        tree = _churn(lambda rng: float(rng.randrange(1, 10**9)))
        digest = _preorder_digest(
            tree, lambda t: (t.value, t._key[1], t._prio, t.size, t.sum))
        assert len(tree) == 578
        assert digest == "8aae454825b3c4252cf6848732750dd76bfb081d6b30904d286d93291696cc50"

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
