"""The one-descent reads of the LMC queue index.

A probe takes ``count_ge(L)`` and the sum of the stored values below
``L`` in one value descent (:meth:`RangeTree.count_ge_tail`); an insert
takes its rank and the sum behind it in its BST descent
(:meth:`RangeTree.insert_ranked`). Both fold the nodes they step left
at bottom-up, the way ``range_sum`` adds a suffix, so they agree with
``range_sum`` bit for bit. ``max_node()`` is the threaded last node,
read in ``Θ(1)``.

* a seeded churn digest pinned before the descents existed (total
  cost, queue head, every insert's rank and every probe, tied values
  included);
* Hypothesis checks of each new read against the query it replaces,
  compared with ``==``;
* both sums within ``(m−1)·2⁻⁵³`` of the exact ``Fraction`` sum of
  their ``m`` terms;
* LMC's one-loop core choice against the list-and-argmin oracle in
  :mod:`repro.verify.reference`.
"""

import hashlib
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.core.dynamic import DynamicCostIndex
from repro.core.online_lmc import LeastMarginalCostPolicy
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II, rate_table_from_power_law
from repro.obs import RecordingTracer
from repro.structures.rangetree import RangeTree
from repro.verify import reference

# A few repeated values force ties; the wide float range makes the
# rounding of every addition order-sensitive.
values = st.one_of(
    st.sampled_from([1.0, 2.5, 7.25, 1e10]),
    st.floats(min_value=1e-3, max_value=1e12, allow_nan=False, allow_infinity=False),
)
TIES = (1.0, 2.5, 7.25, 30.0)

#: sha256 of :func:`_churn_record`, recorded before the fused descents.
CHURN_PIN = "f7380d69c598996d3751a4a9b0cb6f5ab429d47d64c111535cd00df79d91652a"


def _churn_record():
    """A seeded two-phase churn on one index, reduced to one sha256.

    The queue grows past every dominating range of ``(Re, Rt) =
    (0.4, 0.1)`` and then drains to empty. After every operation the
    record takes the total cost and the head's value; for an insert
    also its rank (walked up from the node, and as traced), for a probe
    its marginal cost. Floats are pinned by ``repr``.
    """
    rng = random.Random(1919)
    tracer = RecordingTracer()
    index = DynamicCostIndex(CostModel(TABLE_II, 0.4, 0.1), seed=31, tracer=tracer)
    handles = []
    h = hashlib.sha256()
    for step in range(2400):
        grow = step < 1200
        draw = rng.random()
        if not handles or draw < (0.5 if grow else 0.2):
            cycles = rng.choice(TIES) if rng.random() < 0.3 else rng.uniform(0.1, 60.0)
            node = index.insert(cycles, payload=step)
            handles.append(node)
            row = ("insert", index.tree.rank(node), tracer.events[-1].data["position"])
        elif draw < (0.6 if grow else 0.4):
            index.delete(handles.pop(rng.randrange(len(handles))))
            row = ("delete",)
        elif draw < 0.7:
            head = index.head()
            handles.remove(head)
            index.delete(head)
            row = ("pop",)
        else:
            cycles = rng.choice(TIES) if rng.random() < 0.3 else rng.uniform(0.1, 60.0)
            row = ("probe", repr(index.marginal_insert_cost(cycles)))
        head = index.tree.max_node()
        row += (repr(index.total_cost), None if head is None else repr(head.value))
        h.update(repr(row).encode())
    return h.hexdigest()


def test_seeded_churn_matches_the_pin():
    assert _churn_record() == CHURN_PIN


def _suffix(tree, first_rank):
    """The stored values at ranks ``first_rank .. N``, in rank order."""
    return tree.values()[first_rank - 1:]


def _within_summation_bound(computed, terms):
    """``|computed − Σ terms| <= (m−1)·2⁻⁵³·Σ|terms|``, judged exactly.

    The bound holds for any order of adding ``m`` floats under
    round-to-nearest, so it is the same promise for the descent's fold
    and for ``range_sum``.
    """
    exact = sum(map(Fraction, terms), Fraction(0))
    scale = sum((abs(Fraction(t)) for t in terms), Fraction(0))
    bound = max(len(terms) - 1, 0) * Fraction(1, 2 ** 53) * scale
    return abs(Fraction(computed) - exact) <= bound


def _assert_last_threaded(tree):
    nodes = list(tree)
    assert tree.max_node() is (nodes[-1] if nodes else None)
    if nodes:
        assert tree.max_node().next is None


class TestDescentReads:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(values, min_size=1, max_size=120), st.randoms(use_true_random=False))
    def test_insert_ranked_matches_rank_and_range_sum(self, inserts, rnd):
        tree = RangeTree(seed=rnd.randrange(1 << 30))
        nodes = []
        for v in inserts:
            node, rank, tail = tree.insert_ranked(v, payload=len(nodes))
            assert rank == tree.rank(node)
            assert tail == tree.range_sum(rank + 1, tree.size)
            assert _within_summation_bound(tail, _suffix(tree, rank + 1))
            nodes.append(node)
            _assert_last_threaded(tree)
            if rnd.random() < 0.3:
                tree.delete(nodes.pop(rnd.randrange(len(nodes))))
                _assert_last_threaded(tree)
        tree.check_invariants()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(values, max_size=120), st.lists(values, min_size=1, max_size=10),
           st.randoms(use_true_random=False))
    def test_count_ge_tail_matches_count_ge_and_range_sum(self, stored, probes, rnd):
        tree = RangeTree(seed=rnd.randrange(1 << 30))
        for v in stored:
            tree.insert(v)
        # probing a stored value exercises the tie rule (equals count as >=)
        for v in probes + stored[:5]:
            count, tail = tree.count_ge_tail(v)
            assert count == tree.count_ge(v)
            assert tail == tree.range_sum(count + 1, tree.size)
            assert _within_summation_bound(tail, _suffix(tree, count + 1))
            assert _within_summation_bound(tree.range_sum(count + 1, tree.size),
                                           _suffix(tree, count + 1))

    def test_count_ge_tail_of_an_empty_tree(self):
        assert RangeTree().count_ge_tail(3.0) == (0, 0.0)

    def test_max_node_follows_every_delete_to_empty(self):
        tree = RangeTree(seed=3)
        nodes = [tree.insert(v) for v in (5.0, 1.0, 1.0, 9.0, 0.5, 0.5)]
        _assert_last_threaded(tree)
        assert tree.max_node() is nodes[5]  # tied with nodes[4], inserted later
        # delete the last node each time, then the rest from the front
        for node in (nodes[5], nodes[4], nodes[2], nodes[3], nodes[0], nodes[1]):
            tree.delete(node)
            _assert_last_threaded(tree)
        assert tree.max_node() is None and tree.size == 0
        tree.insert(2.0)
        _assert_last_threaded(tree)


LITTLE = rate_table_from_power_law([0.6, 0.9, 1.2, 1.5], dynamic_coefficient=0.25,
                                   name="little")


class TestOneLoopCoreChoice:
    """``choose_core_noninteractive`` against the list-and-argmin oracle."""

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1.0, 4.0, 30.0, 250.0])),
                    max_size=60),
           st.sampled_from([1.0, 4.0, 30.0, 250.0, 0.25]),
           st.one_of(st.none(), st.lists(st.sampled_from([0.0, 0.5, 3.0]), min_size=4,
                                         max_size=4)),
           st.booleans())
    def test_matches_reference_argmin(self, queued, cycles, head_delays, big_little):
        tables = [TABLE_II, TABLE_II, LITTLE, LITTLE] if big_little else [TABLE_II] * 4
        tracer = RecordingTracer()
        policy = LeastMarginalCostPolicy([CostModel(t, 0.4, 0.1) for t in tables],
                                         tracer=tracer)
        for core, c in queued:
            policy.enqueue(core, c)
        chosen = policy.choose_core_noninteractive(cycles, head_delays)
        costs = reference.marginal_insert_costs(policy, cycles, head_delays)
        assert chosen == reference.choose_core_noninteractive(policy, cycles, head_delays)
        assert chosen == costs.index(min(costs))  # first minimum: ties to the lowest core
        event = tracer.by_kind("lmc.noninteractive")[-1]
        assert event.data["costs"] == costs and event.data["chosen"] == chosen

    def test_ties_go_to_the_lowest_core(self):
        policy = LeastMarginalCostPolicy([CostModel(TABLE_II, 0.4, 0.1)] * 4)
        assert policy.choose_core_noninteractive(10.0) == 0
        assert policy.choose_core_noninteractive(10.0, [2.0, 1.0, 1.0, 1.0]) == 1
        policy.enqueue(1, 5.0)
        assert policy.choose_core_noninteractive(10.0, [2.0, 1.0, 1.0, 1.0]) == 2

    def test_each_call_reads_the_queues_probe(self):
        """A probe replaced on one queue instance is the one the choice uses."""
        policy = LeastMarginalCostPolicy([CostModel(TABLE_II, 0.4, 0.1)] * 3)
        policy.queues[2].marginal_insert_cost = lambda cycles: -1.0
        assert policy.choose_core_noninteractive(10.0) == 2
