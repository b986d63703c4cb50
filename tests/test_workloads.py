"""Tests for the workload generators (Table I, synthetic, Judgegirl trace)."""

import math
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.models.task import TaskKind
from repro.workloads.spec import (
    MEASUREMENT_RATE_GHZ,
    SPEC_TABLE_I,
    spec_cycles,
    spec_tasks,
)
from repro.workloads.synthetic import (
    adversarial_equal_batch,
    bimodal_batch,
    lognormal_batch,
    uniform_batch,
)
from repro.workloads import trace as trace_module
from repro.workloads.trace import (
    JudgeTraceConfig,
    generate_judge_trace,
    trace_summary,
)

#: Weights whose rounded running sum ends at 0.9999999999999998, below
#: the largest ``random()`` draw.
SHORT_CDF = (0.1, 0.3, 0.2)


#: The largest value ``random.random()`` returns.
TOP_DRAW = 1.0 - 2.0**-53


class _ScriptedDraws(random.Random):
    """``random()`` returns ``draws`` in order, then 0.5."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0) if self.draws else 0.5


def _script_trace_rng(monkeypatch, draws):
    """Make ``generate_judge_trace`` draw ``draws`` first."""
    monkeypatch.setattr(trace_module, "random",
                        types.SimpleNamespace(Random=lambda seed: _ScriptedDraws(draws)))


class TestSpecTableI:
    def test_twelve_benchmarks(self):
        assert len(SPEC_TABLE_I) == 12
        names = [w.benchmark for w in SPEC_TABLE_I]
        assert names[0] == "perlbench"
        assert "libquantum" in names
        assert len(set(names)) == 12

    def test_exact_paper_values_spotcheck(self):
        byname = {w.benchmark: w for w in SPEC_TABLE_I}
        assert byname["gcc"].train_seconds == 1.63
        assert byname["h264ref"].ref_seconds == 1549.734
        assert byname["sjeng"].train_seconds == 224.398

    def test_cycles_conversion(self):
        byname = {w.benchmark: w for w in SPEC_TABLE_I}
        # cycles = seconds × 1.6 GHz
        assert byname["mcf"].cycles("train") == pytest.approx(17.568 * 1.6)
        assert MEASUREMENT_RATE_GHZ == 1.6

    def test_spec_cycles_has_24_entries(self):
        cycles = spec_cycles()
        assert len(cycles) == 24
        assert cycles["gcc/train"] == pytest.approx(1.63 * 1.6)

    def test_spec_tasks_selection(self):
        assert len(spec_tasks("both")) == 24
        assert len(spec_tasks("train")) == 12
        assert len(spec_tasks("ref")) == 12
        with pytest.raises(ValueError):
            spec_tasks("all")

    def test_ref_heavier_than_train(self):
        for w in SPEC_TABLE_I:
            assert w.cycles("ref") > w.cycles("train")


class TestSyntheticBatches:
    def test_uniform_bounds_and_determinism(self):
        a = uniform_batch(50, lo=2.0, hi=9.0, seed=5)
        b = uniform_batch(50, lo=2.0, hi=9.0, seed=5)
        assert [t.cycles for t in a] == [t.cycles for t in b]
        assert all(2.0 <= t.cycles <= 9.0 for t in a)

    def test_uniform_different_seeds_differ(self):
        a = uniform_batch(20, seed=1)
        b = uniform_batch(20, seed=2)
        assert [t.cycles for t in a] != [t.cycles for t in b]

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            uniform_batch(-1)
        with pytest.raises(ValueError):
            uniform_batch(5, lo=0.0)
        with pytest.raises(ValueError):
            uniform_batch(5, lo=10.0, hi=1.0)

    def test_lognormal_positive_and_heavy_tailed(self):
        ts = lognormal_batch(500, median=10.0, sigma=1.2, seed=0)
        values = sorted(t.cycles for t in ts)
        assert all(v > 0 for v in values)
        # heavy tail: max far above the median
        assert values[-1] > 10 * values[len(values) // 2]

    def test_lognormal_validation(self):
        with pytest.raises(ValueError):
            lognormal_batch(5, median=0.0)
        with pytest.raises(ValueError):
            lognormal_batch(5, sigma=-1.0)

    def test_bimodal_two_modes(self):
        ts = bimodal_batch(300, small=5.0, large=500.0, large_fraction=0.3, seed=1)
        smalls = [t for t in ts if t.cycles < 50]
        larges = [t for t in ts if t.cycles > 400]
        assert len(smalls) + len(larges) == 300
        assert 40 < len(larges) < 150  # near 30%

    def test_bimodal_validation(self):
        with pytest.raises(ValueError):
            bimodal_batch(5, large_fraction=1.5)
        with pytest.raises(ValueError):
            bimodal_batch(5, jitter=1.0)

    def test_adversarial_equal(self):
        ts = adversarial_equal_batch(10, cycles=3.0)
        assert all(t.cycles == 3.0 for t in ts)
        with pytest.raises(ValueError):
            adversarial_equal_batch(5, cycles=0.0)


class TestJudgeTrace:
    def test_published_aggregates_by_default(self):
        trace = generate_judge_trace()
        s = trace_summary(trace)
        assert s.n_interactive == 50_525
        assert s.n_noninteractive == 768
        assert s.duration_s <= 1800.0

    def test_sorted_by_arrival(self):
        trace = generate_judge_trace(JudgeTraceConfig(
            n_interactive=200, n_noninteractive=30, seed=9))
        arrivals = [t.arrival for t in trace]
        assert arrivals == sorted(arrivals)

    def test_determinism_per_seed(self):
        cfg = JudgeTraceConfig(n_interactive=100, n_noninteractive=20, seed=7)
        a = generate_judge_trace(cfg)
        b = generate_judge_trace(cfg)
        assert [(t.arrival, t.cycles) for t in a] == [(t.arrival, t.cycles) for t in b]

    def test_kinds_and_deadlines(self):
        cfg = JudgeTraceConfig(n_interactive=50, n_noninteractive=10, seed=1)
        for t in generate_judge_trace(cfg):
            if t.kind is TaskKind.INTERACTIVE:
                assert t.deadline == pytest.approx(t.arrival + cfg.interactive_deadline_s)
                lo, hi = cfg.interactive_cycles
                assert lo <= t.cycles <= hi
            else:
                assert math.isinf(t.deadline)
                assert t.cycles > 0

    def test_submission_burst_shape(self):
        """The deadline burst: most judging jobs arrive in the last bin."""
        cfg = JudgeTraceConfig(n_interactive=0, n_noninteractive=600, seed=3)
        trace = generate_judge_trace(cfg)
        last_bin = [t for t in trace if t.arrival >= 1500.0]
        assert len(last_bin) > 0.6 * len(trace)

    def test_problem_names_recorded(self):
        cfg = JudgeTraceConfig(n_interactive=0, n_noninteractive=50, seed=2)
        names = {t.name.split("/")[1] for t in generate_judge_trace(cfg)}
        assert names <= {"p1", "p2", "p3", "p4", "p5"}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            JudgeTraceConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            JudgeTraceConfig(n_interactive=-1)
        with pytest.raises(ValueError):
            JudgeTraceConfig(problem_medians=(1.0,), problem_weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            JudgeTraceConfig(interactive_profile=())
        with pytest.raises(ValueError):
            JudgeTraceConfig(interactive_cycles=(0.0, 1.0))

    @pytest.mark.parametrize("profile", [SHORT_CDF, SHORT_CDF + (0.0,)])
    def test_top_draw_lands_in_last_weighted_bin(self, monkeypatch, profile):
        """The arrival-bin table ends at exactly 1.0, so the largest draw
        picks the last bin of positive weight instead of indexing past
        the table."""
        _script_trace_rng(monkeypatch, [TOP_DRAW])  # the bin; its offset draws 0.5
        cfg = JudgeTraceConfig(n_interactive=1, n_noninteractive=0, duration_s=len(profile),
                               interactive_profile=profile)
        (task,) = generate_judge_trace(cfg)
        assert task.arrival == 2.5

    def test_top_draw_picks_last_problem(self, monkeypatch):
        """The problem-choice table ends at exactly 1.0 as well."""
        _script_trace_rng(monkeypatch, [0.5, 0.5, TOP_DRAW])  # arrival bin, offset, problem
        cfg = JudgeTraceConfig(n_interactive=0, n_noninteractive=1,
                               problem_medians=(7.2, 12.6, 18.0), problem_weights=SHORT_CDF)
        (task,) = generate_judge_trace(cfg)
        assert task.name.endswith("/p3")

    def test_utilisation_metric(self):
        cfg = JudgeTraceConfig(n_interactive=10, n_noninteractive=10, seed=4)
        s = trace_summary(generate_judge_trace(cfg))
        u = s.utilisation_at(3.0, 4)
        assert u > 0
        assert s.utilisation_at(3.0, 8) == pytest.approx(u / 2)
        with pytest.raises(ValueError):
            s.utilisation_at(0.0, 4)

    def test_empty_trace_summary(self):
        s = trace_summary([])
        assert s.total_tasks == 0
        assert s.duration_s == 0.0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_arrivals_within_duration(self, seed):
        cfg = JudgeTraceConfig(
            n_interactive=80, n_noninteractive=20, duration_s=120.0, seed=seed
        )
        for t in generate_judge_trace(cfg):
            assert 0.0 <= t.arrival <= 120.0
