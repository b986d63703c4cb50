"""Tests for the 1D range tree (Section IV-A's data structure)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.structures.rangetree import RangeTree


def naive_delta(values_desc, a, b):
    """Δ([a,b]) = Σ (k-a+1)·v_k over 1-based ranks of the descending list."""
    return sum((k - a + 1) * v for k, v in enumerate(values_desc, start=1) if a <= k <= b)


def naive_sum(values_desc, a, b):
    return sum(v for k, v in enumerate(values_desc, start=1) if a <= k <= b)


class TestBasics:
    def test_empty(self):
        t = RangeTree()
        assert len(t) == 0
        assert not t
        assert t.min_node() is None
        assert t.max_node() is None
        assert t.values() == []
        assert t.range_sum(1, 10) == 0.0

    def test_descending_order(self):
        t = RangeTree()
        for v in [3.0, 1.0, 2.0, 5.0, 4.0]:
            t.insert(v)
        assert t.values() == [5.0, 4.0, 3.0, 2.0, 1.0]

    def test_rank_and_select_inverse(self):
        t = RangeTree()
        nodes = [t.insert(float(v)) for v in [10, 30, 20, 40]]
        for node in nodes:
            assert t.select(t.rank(node)) is node

    def test_rank_one_is_largest(self):
        t = RangeTree()
        t.insert(1.0)
        big = t.insert(100.0)
        t.insert(50.0)
        assert t.rank(big) == 1
        assert t.min_node() is big  # min_node = rank 1 end of the order

    def test_select_out_of_range(self):
        t = RangeTree()
        t.insert(1.0)
        with pytest.raises(IndexError):
            t.select(0)
        with pytest.raises(IndexError):
            t.select(2)

    def test_duplicates_keep_insertion_order(self):
        t = RangeTree()
        a = t.insert(5.0, payload="first")
        b = t.insert(5.0, payload="second")
        assert t.rank(a) == 1  # earlier insert of an equal value ranks first
        assert t.rank(b) == 2
        assert [n.payload for n in t] == ["first", "second"]

    def test_delete_rewires_threading(self):
        t = RangeTree()
        nodes = [t.insert(float(v)) for v in (3, 2, 1)]
        t.delete(nodes[1])  # remove the middle (value 2)
        assert t.values() == [3.0, 1.0]
        assert nodes[0].next is nodes[2]
        assert nodes[2].prev is nodes[0]

    def test_delete_foreign_node_rejected(self):
        t1, t2 = RangeTree(), RangeTree()
        n = t1.insert(1.0)
        with pytest.raises(ValueError):
            t2.delete(n)
        t1.delete(n)
        with pytest.raises(ValueError):
            t1.delete(n)  # already removed

    def test_payloads_roundtrip(self):
        t = RangeTree()
        n = t.insert(7.0, payload={"id": 42})
        assert n.payload == {"id": 42}
        assert t.select(1).payload == {"id": 42}


class TestAggregates:
    def test_range_sum_by_hand(self):
        t = RangeTree()
        for v in [40.0, 30.0, 20.0, 10.0]:
            t.insert(v)
        assert t.range_sum(1, 4) == pytest.approx(100.0)
        assert t.range_sum(2, 3) == pytest.approx(50.0)
        assert t.range_sum(4, 4) == pytest.approx(10.0)

    def test_range_delta_by_hand(self):
        t = RangeTree()
        for v in [40.0, 30.0, 20.0, 10.0]:
            t.insert(v)
        # Δ([2,4]) = 1·30 + 2·20 + 3·10 = 100
        assert t.range_delta(2, 4) == pytest.approx(100.0)
        # γ([2,4]) = 2·30 + 3·20 + 4·10 = 160 = Δ + (a-1)·ξ = 100 + 1·60
        assert t.range_delta(2, 4) + (2 - 1) * t.range_sum(2, 4) == pytest.approx(160.0)

    def test_out_of_bounds_clamped(self):
        t = RangeTree()
        t.insert(5.0)
        assert t.range_sum(-3, 99) == pytest.approx(5.0)
        assert t.range_delta(2, 1) == 0.0

    def test_equation_33_34_composition(self):
        """Adjacent ranges compose: the paper's associativity identities."""
        t = RangeTree()
        rng = random.Random(7)
        vals = [rng.uniform(1, 100) for _ in range(40)]
        for v in vals:
            t.insert(v)
        L, M, R = 5, 17, 33
        xi_left = t.range_sum(L, M)
        xi_right = t.range_sum(M + 1, R)
        assert t.range_sum(L, R) == pytest.approx(xi_left + xi_right)
        d_left = t.range_delta(L, M)
        d_right = t.range_delta(M + 1, R)
        assert t.range_delta(L, R) == pytest.approx(
            d_left + d_right + (M + 1 - L) * xi_right
        )


class TestPropertyBased:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.001, 1e6), min_size=0, max_size=60))
    def test_inorder_matches_sorted(self, values):
        t = RangeTree()
        for v in values:
            t.insert(v)
        assert t.values() == pytest.approx(sorted(values, reverse=True))
        t.check_invariants()

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.001, 1e6), min_size=1, max_size=40),
        st.integers(1, 40),
        st.integers(1, 40),
    )
    def test_aggregates_match_naive(self, values, a, b):
        t = RangeTree()
        for v in values:
            t.insert(v)
        desc = sorted(values, reverse=True)
        assert t.range_sum(a, b) == pytest.approx(naive_sum(desc, a, b), abs=1e-6)
        assert t.range_delta(a, b) == pytest.approx(naive_delta(desc, a, b), abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_insert_delete_interleaving(self, data):
        t = RangeTree()
        alive = []
        mirror = []
        for _ in range(data.draw(st.integers(1, 80))):
            if alive and data.draw(st.booleans()):
                i = data.draw(st.integers(0, len(alive) - 1))
                node = alive.pop(i)
                mirror.remove(node.value)
                t.delete(node)
            else:
                v = data.draw(st.floats(0.001, 1e4))
                alive.append(t.insert(v))
                mirror.append(alive[-1].value)
            assert len(t) == len(mirror)
        t.check_invariants()
        assert t.values() == pytest.approx(sorted(mirror, reverse=True))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_seed_changes_shape_not_content(self, seed):
        values = [float(v) for v in range(20)]
        t = RangeTree(seed=seed)
        for v in values:
            t.insert(v)
        assert t.values() == sorted(values, reverse=True)
        t.check_invariants()


class TestScaling:
    def test_large_tree_stays_consistent(self):
        rng = random.Random(123)
        t = RangeTree()
        nodes = []
        for _ in range(5000):
            nodes.append(t.insert(rng.uniform(0, 1e6)))
        rng.shuffle(nodes)
        for node in nodes[:2500]:
            t.delete(node)
        assert len(t) == 2500
        t.check_invariants()
