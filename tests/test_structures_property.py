"""Property-based (seeded-random, stdlib-only) tests for the range
tree: random operation sequences cross-checked against a naive sorted
list model.

These complement the example-based tests in
``test_structures_rangetree.py`` by exploring long mixed op sequences —
including range aggregates after deletions — that hand-written cases
rarely reach.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.structures.rangetree import RangeTree


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# RangeTree vs a sorted-list model
# ---------------------------------------------------------------------------


def _naive_aggregates(desc: list[float], a: int, b: int) -> tuple[float, float, float]:
    """(ξ, Δ, γ) over 1-based descending ranks ``a..b``, per Eq. 30."""
    window = desc[a - 1 : b]
    xi = sum(window)
    delta = sum((i + 1) * v for i, v in enumerate(window))
    gamma = sum((a + i) * v for i, v in enumerate(window))
    return xi, delta, gamma


@pytest.mark.parametrize("trial", range(12))
def test_rangetree_random_ops_match_list_model(trial: int) -> None:
    rng = random.Random(0xCAFE + trial)
    tree = RangeTree(seed=trial)
    live: list = []  # (node, value); values kept distinct so order is total

    for step in range(160):
        if rng.random() < 0.55 or not live:
            value = rng.uniform(0.01, 1000.0)
            live.append((tree.insert(value), value))
        else:
            node, _value = live.pop(rng.randrange(len(live)))
            tree.delete(node)

        desc = sorted((v for _, v in live), reverse=True)
        assert len(tree) == len(desc)
        assert tree.values() == desc
        if desc:
            assert tree.min_node().value == desc[0]
            assert tree.max_node().value == desc[-1]
            k = rng.randint(1, len(desc))
            node_k = tree.select(k)
            assert node_k.value == desc[k - 1]
            assert tree.rank(node_k) == k
        if step % 20 == 0:
            tree.check_invariants()

        # range aggregates on a random (possibly empty) rank window
        n = len(desc)
        if n:
            a = rng.randint(1, n)
            b = rng.randint(a, n)
            xi, delta, gamma = _naive_aggregates(desc, a, b)
            assert _close(tree.range_sum(a, b), xi)
            assert _close(tree.range_delta(a, b), delta)
            # Equation 30: γ = Δ + (a-1)·ξ
            assert _close(tree.range_delta(a, b) + (a - 1) * tree.range_sum(a, b), gamma)
        assert tree.range_sum(2, 1) == 0.0


def test_rangetree_range_sum_after_heavy_deletions() -> None:
    """Aggregates stay exact when most of the tree has been deleted.

    Builds 200 nodes, deletes 180 in seeded-random order, and checks
    every aggregate over full and partial windows against the naive
    model — the regime where stale augmented sums would survive if
    ``delete`` under-propagated.
    """
    rng = random.Random(42)
    tree = RangeTree(seed=1)
    live = [(tree.insert(rng.uniform(1.0, 100.0)),) for _ in range(200)]
    live = [(node, node.value) for (node,) in live]
    for _ in range(180):
        node, _value = live.pop(rng.randrange(len(live)))
        tree.delete(node)
    tree.check_invariants()

    desc = sorted((v for _, v in live), reverse=True)
    n = len(desc)
    assert len(tree) == n == 20
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            xi, delta, gamma = _naive_aggregates(desc, a, b)
            assert _close(tree.range_sum(a, b), xi)
            assert _close(tree.range_delta(a, b), delta)
            # Equation 30: γ = Δ + (a-1)·ξ
            assert _close(tree.range_delta(a, b) + (a - 1) * tree.range_sum(a, b), gamma)


@pytest.mark.parametrize("trial", range(8))
def test_rangetree_count_ge_matches_sorted_list(trial: int) -> None:
    """``count_ge`` against a sorted list, with heavy duplication."""
    rng = random.Random(0xC0DE + trial)
    tree = RangeTree(seed=trial)
    menu = [rng.uniform(0.01, 100.0) for _ in range(6)]  # few values → many ties
    live: list = []
    for step in range(120):
        if rng.random() < 0.6 or not live:
            value = rng.choice(menu)
            live.append((tree.insert(value), value))
        else:
            node, _value = live.pop(rng.randrange(len(live)))
            tree.delete(node)
        values = sorted(v for _, v in live)
        for probe in menu + [0.0, 1e9, rng.uniform(0.0, 120.0)]:
            want = sum(1 for v in values if v >= probe)
            assert tree.count_ge(probe) == want
        if live and step % 10 == 0:
            # a new value lands right after its equals
            value = rng.choice(menu)
            node = tree.insert(value)
            assert tree.rank(node) == sum(1 for v in values if v >= value) + 1
            tree.delete(node)
    assert RangeTree().count_ge(1.0) == 0
