"""Tests for the power trace derived from a batch run's task records."""

import math
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from strategies import rate_tables
from repro.analysis.powerprofile import PowerSegment, power_at, power_trace, sampled_energy
from repro.models.cost import CoreSchedule, Placement
from repro.models.rates import RateTable
from repro.models.task import Task
from repro.models.tolerances import REL_TOL
from repro.simulator import run_batch
from repro.simulator.contention import CALIBRATED_X86, NO_CONTENTION

#: T(p) = 1/p, so the busy power E(p)/T(p) is 10 W at 1.0 and 24 W at 2.0
WATTS = RateTable([1.0, 2.0], [10.0, 12.0], name="watts")


def _run(*cores, table=WATTS, contention=NO_CONTENTION):
    """Run one ``[(cycles, rate), ...]`` plan per core, core ``i`` at index ``i``."""
    plan = [CoreSchedule([Placement(Task(cycles=c), rate) for c, rate in placements], i)
            for i, placements in enumerate(cores)]
    return run_batch(plan, table, contention)


def _joules(segments, idle):
    return sum((s.joules for s in segments if s.idle == idle), 0.0)


class TestIdleFloorValidation:
    @pytest.mark.parametrize("idle_power", [-1.0, math.nan, math.inf, -math.inf])
    def test_rejects_bad_idle_power(self, idle_power):
        result = _run([(2.0, 1.0)])
        with pytest.raises(ValueError, match="idle_power must be finite and non-negative"):
            power_trace(result, WATTS, idle_power=idle_power)

    def test_zero_idle_power_accepted(self):
        result = _run([(2.0, 1.0)], [(4.0, 1.0)])
        idle = [s for segments in power_trace(result, WATTS, 0.0) for s in segments if s.idle]
        assert idle == [PowerSegment(2.0, 4.0, 0.0, idle=True)]


class TestIntegration:
    def test_busy_energy_is_power_times_time(self):
        five = RateTable([1.0, 2.0], [5.0, 6.0])  # 5 W at 1.0
        result = _run([(10.0, 1.0)], table=five)
        (segments,) = power_trace(result, five)
        assert segments == [PowerSegment(0.0, 10.0, 5.0, idle=False)]
        assert _joules(segments, idle=False) == pytest.approx(50.0)
        assert _joules(segments, idle=True) == 0.0

    def test_idle_booked_separately(self):
        # core 0 runs [0, 2) at 10 W, core 1 keeps the run going to 4 s
        result = _run([(2.0, 1.0)], [(4.0, 1.0)])
        core0, _ = power_trace(result, WATTS, idle_power=30.0)
        assert _joules(core0, idle=False) == pytest.approx(20.0)  # idle subtracted
        assert _joules(core0, idle=True) == pytest.approx(60.0)
        assert sum(s.joules for s in core0) == pytest.approx(80.0)

    def test_zero_length_interval_is_noop(self):
        # a task shorter than half an ulp of the clock finishes at its start
        result = _run([(1e9, 1.0), (1e-8, 1.0)])
        tiny = result.records[-1]
        assert tiny.start == tiny.finish == 1e9
        (segments,) = power_trace(result, WATTS, idle_power=1.0)
        assert segments == [PowerSegment(0.0, 1e9, 10.0, idle=False)]

    @settings(max_examples=60, deadline=None)
    @given(
        table=rate_tables(1, 5),
        contention=st.sampled_from([NO_CONTENTION, CALIBRATED_X86]),
        tasks=st.lists(
            st.tuples(st.integers(0, 3), st.floats(0.001, 1e4), st.integers(0, 4)),
            min_size=1, max_size=30,
        ),
    )
    def test_energy_is_sum_of_segments(self, table, contention, tasks):
        """Per core, the busy segments' joules are the records' energy."""
        plans = defaultdict(list)
        for core, cycles, r in tasks:
            plans[core].append(Placement(Task(cycles=cycles), table.rates[r % len(table.rates)]))
        plan = [CoreSchedule(placements, core) for core, placements in sorted(plans.items())]
        result = run_batch(plan, table, contention)
        trace = power_trace(result, table, idle_power=1.0)
        assert len(trace) == len(result.cores)
        for core, segments in zip(result.cores, trace):
            records = sum((r.energy_joules for r in result.records if r.core == core), 0.0)
            assert math.isclose(_joules(segments, idle=False), records, rel_tol=REL_TOL)
            assert segments[0].start == 0.0 and segments[-1].end == result.makespan


class TestTraceAndSampling:
    def test_power_at_reads_overlapping_segments(self):
        segments = [PowerSegment(0.0, 10.0, 5.0, idle=False),
                    PowerSegment(5.0, 15.0, 3.0, idle=False)]  # a second core's, chained
        assert power_at(segments, 2.0) == pytest.approx(5.0)
        assert power_at(segments, 7.0) == pytest.approx(8.0)
        assert power_at(segments, 12.0) == pytest.approx(3.0)
        assert power_at(segments, 20.0) == 0.0

    def test_sampled_energy_exact_for_aligned_segments(self):
        segments = [PowerSegment(0.0, 4.0, 10.0, idle=False)]
        # 1 Hz samples aligned with a piecewise-constant signal: exact
        assert sampled_energy(segments, 1.0) == pytest.approx(40.0)

    def test_sampled_energy_close_at_fine_period(self):
        segments = [PowerSegment(0.0, 3.3, 7.0, idle=False),
                    PowerSegment(3.3, 5.1, 2.0, idle=False)]
        exact = sum(s.joules for s in segments)
        approx = sampled_energy(segments, 0.01)
        assert approx == pytest.approx(exact, rel=0.02)

    def test_sampling_validation(self):
        segments = [PowerSegment(0.0, 1.0, 1.0, idle=False)]
        for period in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                sampled_energy(segments, period)


class TestMerge:
    def test_merge_folds_books(self):
        """Chaining the cores' traces reads as one platform (wall) meter."""
        result = _run([(1.0, 1.0)], [(1.5, 2.0)])  # [0, 1) at 10 W, [0, 0.75) at 24 W
        platform = [s for segments in power_trace(result, WATTS, 2.0) for s in segments]
        assert _joules(platform, idle=False) == pytest.approx(10.0 + 18.0)
        assert _joules(platform, idle=True) == pytest.approx(2.0 * 0.25)
        assert power_at(platform, 0.5) == pytest.approx(34.0)
        assert power_at(platform, 0.9) == pytest.approx(12.0)
