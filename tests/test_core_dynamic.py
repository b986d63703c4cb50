"""Tests for Section IV-A — dynamic insertion/deletion (Algorithms 4-6)."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import cost_models
from repro.core.batch_single import schedule_cost_lower_bound
from repro.core.dynamic import DynamicCostIndex, NaiveCostIndex
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II, RateTable
from repro.models.task import Task
from repro.models.tolerances import AGG_ABS_TOL, REL_TOL


@pytest.fixture
def index(online_model):
    return DynamicCostIndex(online_model)


class TestEmptyAndSingle:
    def test_empty_cost_zero(self, index):
        assert index.total_cost == 0.0
        assert len(index) == 0
        assert index.head() is None
        assert index.execution_order() == []

    def test_single_insert_cost(self, index, online_model):
        node = index.insert(10.0)
        # one task, backward position 1 → CB*(1)·L
        expected = online_model.best_backward_cost(1) * 10.0
        assert index.total_cost == pytest.approx(expected)
        assert index.backward_position(node) == 1
        index.check_invariants()

    def test_insert_then_delete_returns_to_zero(self, index):
        node = index.insert(42.0)
        index.delete(node)
        assert index.total_cost == pytest.approx(0.0, abs=1e-9)
        assert len(index) == 0
        index.check_invariants()

    def test_rejects_nonpositive_cycles(self, index):
        with pytest.raises(ValueError):
            index.insert(0.0)

    @pytest.mark.parametrize("cycles", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_bad_cycles_at_the_boundary(self, index, cycles):
        index.insert(5.0)
        for op in (index.insert, index.marginal_insert_cost, NaiveCostIndex(index.model).insert):
            with pytest.raises(ValueError, match="positive and finite"):
                op(cycles)
        assert len(index) == 1
        index.check_invariants()


class TestAgainstClosedForm:
    def test_matches_equation_17(self, index, online_model):
        """C equals Σ CB*(k)·L^B_k, i.e. the Algorithm 2 optimal cost."""
        cycles = [17.0, 3.0, 99.0, 45.0, 45.0, 8.0]
        for c in cycles:
            index.insert(c)
        tasks = [Task(cycles=c) for c in cycles]
        assert index.total_cost == pytest.approx(
            schedule_cost_lower_bound(tasks, online_model), rel=1e-9
        )

    def test_execution_order_is_shortest_first(self, index):
        for c in (30.0, 10.0, 20.0):
            index.insert(c)
        order = [n.value for n in index.execution_order()]
        assert order == [10.0, 20.0, 30.0]
        assert index.head().value == 10.0

    def test_rate_of_follows_dominating_ranges(self, online_model):
        idx = DynamicCostIndex(online_model)
        nodes = [idx.insert(float(i)) for i in range(1, 31)]
        for node in nodes:
            kb = idx.backward_position(node)
            assert idx.rate_of(node) == idx.ranges.rate_for(kb)


class TestCascades:
    def test_insert_cascade_across_boundaries(self, batch_model):
        """Batch pricing has tight ranges ([1,2),[2,3),[3,5),[5,10),[10,∞)),
        so a burst of inserts exercises every boundary cascade."""
        idx = DynamicCostIndex(batch_model)
        naive = NaiveCostIndex(batch_model)
        for i in range(25):
            idx.insert(float(100 - i))
            naive.insert(float(100 - i))
            assert idx.total_cost == pytest.approx(naive.total_cost, rel=1e-9)
        idx.check_invariants()

    def test_delete_cascade_back_across_boundaries(self, batch_model):
        idx = DynamicCostIndex(batch_model)
        naive = NaiveCostIndex(batch_model)
        nodes = []
        for i in range(25):
            v = float(100 - i)
            nodes.append((idx.insert(v), v))
        for node, v in nodes[::2]:
            idx.delete(node)
            naive_values = [x for _, x in nodes if x != v]
            # rebuild naive from scratch for clarity
        # simpler: rebuild naive and compare end state
        survivors = [v for i, (_, v) in enumerate(nodes) if i % 2 == 1]
        for v in survivors:
            naive.insert(v)
        assert idx.total_cost == pytest.approx(naive.total_cost, rel=1e-9)
        idx.check_invariants()

    def test_insert_smallest_lands_at_tail(self, batch_model):
        idx = DynamicCostIndex(batch_model)
        for v in (50.0, 40.0, 30.0):
            idx.insert(v)
        tail = idx.insert(1.0)
        assert idx.backward_position(tail) == 4
        idx.check_invariants()

    def test_insert_largest_lands_at_head(self, batch_model):
        idx = DynamicCostIndex(batch_model)
        for v in (50.0, 40.0, 30.0):
            idx.insert(v)
        head = idx.insert(99.0)
        assert idx.backward_position(head) == 1
        idx.check_invariants()


class TestMarginalCost:
    def test_probe_restores_state(self, index):
        for v in (10.0, 20.0, 30.0):
            index.insert(v)
        before = index.total_cost
        mc = index.marginal_insert_cost(15.0)
        assert index.total_cost == pytest.approx(before)
        assert len(index) == 3
        assert mc > 0
        index.check_invariants()

    def test_probe_equals_actual_insert_delta(self, index):
        for v in (10.0, 20.0, 30.0):
            index.insert(v)
        before = index.total_cost
        mc = index.marginal_insert_cost(15.0)
        index.insert(15.0)
        assert index.total_cost - before == pytest.approx(mc, rel=1e-9)

    def test_matches_naive(self, online_model):
        idx = DynamicCostIndex(online_model)
        naive = NaiveCostIndex(online_model)
        for v in (5.0, 25.0, 125.0):
            idx.insert(v)
            naive.insert(v)
        for probe in (1.0, 10.0, 60.0, 300.0):
            assert idx.marginal_insert_cost(probe) == pytest.approx(
                naive.marginal_insert_cost(probe), rel=1e-9
            )


def _preorder(node):
    if node is None:
        return []
    return ([(node.value, node._key, node._prio, node.size, node.sum, node.wsum)]
            + _preorder(node.left) + _preorder(node.right))


def _state(idx):
    """Everything a probe could disturb, compared bit-for-bit."""
    tree = idx.tree
    return (idx._x[:], idx._d[:], idx._b[:], idx.total_cost, _preorder(tree._root),
            tree._seq, tree._rng.getstate())


def _exact_marginal(idx, cycles):
    """ΔC of inserting ``cycles``, in exact rational arithmetic."""
    model = idx.model

    def total(values):
        out = Fraction(0)
        for k, v in enumerate(sorted(values, reverse=True), start=1):
            rate = idx.ranges.rate_for(k)
            cb = (Fraction(model.re) * Fraction(model.table.energy(rate))
                  + k * Fraction(model.rt) * Fraction(model.table.time(rate)))
            out += cb * Fraction(v)
        return out

    values = idx.tree.values()
    return total(values + [cycles]) - total(values)


def _landing_probes(idx):
    """Probe values for every tie with a queued value, plus one landing
    exactly at each backward position ``hi_i - 1`` and ``hi_i``."""
    desc = idx.tree.values()
    n = len(desc)
    probes = list(dict.fromkeys(desc))
    for r in idx.ranges:
        for kb in (r.hi - 1, r.hi) if r.hi is not None else ():
            if kb > n + 1:
                continue
            upper = desc[kb - 2] if kb >= 2 else 2.0 * desc[0] if desc else 1.0
            lower = desc[kb - 1] if kb <= n else 0.5 * upper
            if upper > lower:
                probes.append(upper)  # ties with rank kb - 1, lands at kb
                probes.append(math.sqrt(upper) * math.sqrt(lower))
    return probes


def _assert_probe(idx, naive, cycles):
    before = _state(idx)
    got = idx.marginal_insert_cost(cycles)
    assert _state(idx) == before  # the probe mutates nothing
    exact = _exact_marginal(idx, cycles)
    assert abs(Fraction(got) - exact) <= Fraction(REL_TOL) * exact
    # the insert delta and the naive oracle are differences of totals, so
    # their float error scales with the total, not the marginal
    total = idx.total_cost
    tol = max(AGG_ABS_TOL, REL_TOL * max(abs(got), abs(total)))
    node = idx.insert(cycles)
    delta = idx.total_cost - total
    idx.delete(node)
    assert abs(got - delta) <= tol
    assert abs(got - naive.marginal_insert_cost(cycles)) <= tol


_EXTREME = st.sampled_from([1e-6, 1e-3, 1.0, 7.0, 1e3, 1e9])
_CYCLES = st.one_of(_EXTREME, st.floats(1e-6, 1e9))

#: ``(model, queued, extra, deletions)``: deleting the first handles in
#: insertion order walks a range's sum down 1e9 → 2e6 → 1e3 → 1, each
#: step below the absorption ratio.
ABSORPTION_CHAIN_CASES = [
    (CostModel(RateTable([0.125, 1.0, 1.5, 2.0], [1.0, 3.0, 4.0, 5.0]), 4.0, 0.5),
     [1e-6, 1e9, 314725640.4602283, 380153666.10275024, 442976356.49041104, 1e-6, 1e-6,
      1e9, 5758.428676560521, 1e-6, 0.001, 1.0, 1000.0],
     [], [0] * 5),
    (CostModel(RateTable([1.0, 2.0, 2.75, 3.0], [1.0, 2.0, 2.5, 3.5]), 0.5, 0.5),
     [1e-6, 1e-6, 1e-6, 1e9, 1e9, 2096151.0, 2096151.0, 1e-6, 0.001, 1.0, 1000.0],
     [], [0] * 7),
]


class TestClosedFormProbe:
    """The closed-form probe against the insert delta, the naive index,
    and exact rational arithmetic."""

    def test_every_landing_position_batch_ranges(self, batch_model):
        """Batch pricing tiles [1,2),[2,3),[3,5),[5,10),[10,∞): walking the
        queue from empty to 12 tasks makes every range empty, partial and
        full, and probes land on every boundary."""
        idx = DynamicCostIndex(batch_model)
        naive = NaiveCostIndex(batch_model, idx.ranges)
        landed = set()
        for n in range(13):
            for probe in _landing_probes(idx):
                landed.add(idx.tree.count_ge(probe) + 1)
                _assert_probe(idx, naive, probe)
            v = 100.0 - 7.0 * n if n % 3 else 50.0  # repeats make ties
            idx.insert(v)
            naive.insert(v)
        assert {1, 2, 3, 4, 5, 9, 10} <= landed  # hi_i - 1 and hi_i for each boundary

    @settings(max_examples=60, deadline=None)
    @given(cost_models(min_rates=1, max_rates=6),
           st.lists(_CYCLES, max_size=40), st.lists(_CYCLES, max_size=4),
           st.lists(st.integers(0, 39), max_size=40))
    @example(*ABSORPTION_CHAIN_CASES[0])
    @example(*ABSORPTION_CHAIN_CASES[1])
    def test_probe_matches_insert_delta_naive_and_exact(self, model, queued, extra, deletions):
        """``deletions`` pops handles by index (mod the handles left)."""
        idx = DynamicCostIndex(model)
        naive = NaiveCostIndex(model, idx.ranges)
        handles = []
        for v in queued:
            handles.append((idx.insert(v), v))
            naive.insert(v)
        for k in deletions[:len(handles)]:
            node, v = handles.pop(k % len(handles))
            idx.delete(node)
            naive.delete(v)
        for probe in _landing_probes(idx) + extra:
            _assert_probe(idx, naive, probe)
        idx.check_invariants()

    @pytest.mark.parametrize("case", range(len(ABSORPTION_CHAIN_CASES)))
    def test_absorption_chain_is_refreshed(self, case):
        """Deletes that each stay below the absorption ratio still add up
        to a dominant drop (1e9 → 2e6 → 1e3 → 1); the range's aggregates
        must be refreshed, not left with ulp-of-1e9 residue."""
        model, queued, _, deletions = ABSORPTION_CHAIN_CASES[case]
        idx = DynamicCostIndex(model)
        naive = NaiveCostIndex(model, idx.ranges)
        handles = [idx.insert(v) for v in queued]
        for v in queued:
            naive.insert(v)
        for node, v in zip(handles[:len(deletions)], queued):
            idx.delete(node)
            naive.delete(v)
        idx.check_invariants()
        for i in range(len(idx.ranges)):
            a, b = idx._a[i], idx._b[i]
            if a <= b:
                exact = idx.tree.range_delta(a, b)
                assert abs(idx._d[i] - exact) <= REL_TOL * exact
        for probe in _landing_probes(idx):
            _assert_probe(idx, naive, probe)


class TestFuzzAgainstNaive:
    """The headline property: incremental C == from-scratch C, always."""

    @settings(max_examples=30, deadline=None)
    @given(cost_models(min_rates=1, max_rates=6), st.data())
    def test_random_workload(self, model, data):
        idx = DynamicCostIndex(model)
        naive = NaiveCostIndex(model)
        handles = []
        n_ops = data.draw(st.integers(1, 60))
        for _ in range(n_ops):
            if handles and data.draw(st.booleans()):
                i = data.draw(st.integers(0, len(handles) - 1))
                node, v = handles.pop(i)
                idx.delete(node)
                naive.delete(v)
            else:
                v = data.draw(st.floats(0.001, 1e4))
                handles.append((idx.insert(v), v))
                naive.insert(v)
            assert idx.total_cost == pytest.approx(
                naive.total_cost, rel=1e-9, abs=1e-9
            )
        idx.check_invariants()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_long_random_run_table_ii(self, seed):
        rng = random.Random(seed)
        model = CostModel(TABLE_II, re=0.4, rt=0.1)
        idx = DynamicCostIndex(model)
        naive = NaiveCostIndex(model)
        handles = []
        for _ in range(300):
            if handles and rng.random() < 0.45:
                node, v = handles.pop(rng.randrange(len(handles)))
                idx.delete(node)
                naive.delete(v)
            else:
                v = rng.uniform(0.01, 500.0)
                handles.append((idx.insert(v), v))
                naive.insert(v)
        assert idx.total_cost == pytest.approx(naive.total_cost, rel=1e-9)
        idx.check_invariants()

    def test_duplicate_values_throughout(self, batch_model):
        idx = DynamicCostIndex(batch_model)
        naive = NaiveCostIndex(batch_model)
        nodes = [idx.insert(7.0) for _ in range(20)]
        for _ in range(20):
            naive.insert(7.0)
        assert idx.total_cost == pytest.approx(naive.total_cost, rel=1e-9)
        for node in nodes[:10]:
            idx.delete(node)
            naive.delete(7.0)
        assert idx.total_cost == pytest.approx(naive.total_cost, rel=1e-9)
        idx.check_invariants()


class TestPayloads:
    def test_payload_travels_with_node(self, index):
        t = Task(cycles=11.0, name="job")
        node = index.insert(t.cycles, payload=t)
        assert index.head().payload is t
