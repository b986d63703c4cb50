"""Metrics instruments: reset semantics and the unified collector."""

import random

import pytest

from repro.core.dynamic import DynamicCostIndex
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RecordingTracer,
    scheduler_metrics,
)


class TestCounter:
    def test_inc_and_reset(self):
        c = Counter("a.b")
        c.inc()
        c.inc(4)
        assert c.snapshot() == 5
        c.reset()
        assert c.snapshot() == 0

    def test_negative_inc_rejected(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter("a.b").inc(-1)


class TestGauge:
    def test_set_and_nan_rejected(self):
        g = Gauge("q.len")
        g.set(7)
        assert g.snapshot() == 7.0
        with pytest.raises(ValueError, match="NaN"):
            g.set(float("nan"))


class TestHistogram:
    def test_bucketing_with_overflow(self):
        h = Histogram("lat", (1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        # bisect_left: values equal to a bound land in that bound's bucket
        assert h.counts == [2, 1, 1]
        assert h.total == 4
        assert h.mean() == pytest.approx(106.5 / 4)

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", ())
        with pytest.raises(ValueError, match="ascending"):
            Histogram("h", (1.0, 1.0))


    def test_nan_observation_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Histogram("h", (1.0,)).observe(float("nan"))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a.hits") is reg.counter("a.hits")

    def test_type_conflicts_raise(self):
        reg = MetricsRegistry()
        reg.counter("a.hits")
        with pytest.raises(ValueError, match="already registered as a counter"):
            reg.gauge("a.hits")
        reg.histogram("a.lat", (1.0,))
        with pytest.raises(ValueError, match="already registered with buckets"):
            reg.histogram("a.lat", (2.0,))

    def test_name_validation(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="dotted lowercase"):
            reg.counter("Bad.Name")
        with pytest.raises(ValueError):
            reg.counter("")

    def test_snapshot_sorted_and_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("b.n").inc(2)
        reg.gauge("a.g").set(1.5)
        reg.histogram("c.h", (1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert list(snap) == ["a.g", "b.n", "c.h"]
        assert snap["b.n"] == 2
        assert snap["c.h"]["counts"] == [1, 0]

    def test_reset_keeps_registrations(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(5)
        reg.histogram("h", (1.0, 2.0)).observe(0.5)
        reg.reset()
        assert reg.snapshot()["a"] == 0
        assert reg.histogram("h", (1.0, 2.0)).total == 0  # layout survived


    def test_render_text_mentions_every_metric(self):
        reg = MetricsRegistry()
        reg.counter("a.n").inc(1)
        reg.gauge("b.g").set(2)
        reg.histogram("c.h", (1.0,)).observe(3)
        text = reg.render_text()
        for name in ("a.n", "b.g", "c.h"):
            assert name in text


class TestSchedulerMetrics:
    def _churned_index(self, tracer=None):
        index = DynamicCostIndex(CostModel(TABLE_II, 0.1, 0.4), seed=7, tracer=tracer)
        rng = random.Random(7)
        handles = [index.insert(rng.uniform(0.5, 20.0)) for _ in range(10)]
        index.delete(handles.pop(3))
        index.marginal_insert_cost(4.0)
        index.marginal_insert_cost(4.0)
        return index

    def test_collects_all_sources(self):
        tracer = RecordingTracer()
        index = self._churned_index(tracer=tracer)
        reg = scheduler_metrics(indexes=[index], tracer=tracer)
        snap = reg.snapshot()
        assert snap["dynamic.queue0.inserts"] == index.counters["inserts"]
        assert snap["dynamic.queue0.deletes"] == index.counters["deletes"]
        assert snap["dynamic.queue0.probes"] == 2
        assert "dynamic.queue0.probe_memo_hits" not in snap
        assert snap["trace.events.dynamic.insert"] == tracer.counts["dynamic.insert"]

    def test_counters_are_absolute_not_doubled(self):
        index = self._churned_index()
        reg = scheduler_metrics(indexes=[index])
        first = reg.snapshot()["dynamic.queue0.inserts"]
        reg = scheduler_metrics(indexes=[index], registry=reg)
        assert reg.snapshot()["dynamic.queue0.inserts"] == first

    def test_policy_counters(self):
        from repro.core.online_lmc import LeastMarginalCostPolicy

        policy = LeastMarginalCostPolicy(
            [CostModel(TABLE_II, 0.4, 0.1) for _ in range(2)]
        )
        policy.choose_core_noninteractive(3.0)
        reg = scheduler_metrics(policy=policy)
        snap = reg.snapshot()
        assert any(name.startswith("lmc.") for name in snap)
