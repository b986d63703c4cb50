"""Tests for simulated cores (progress/energy integration, preemption)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.models.rates import TABLE_II
from repro.models.task import Task
from repro.simulator.contention import CALIBRATED_X86, NO_CONTENTION, ContentionModel
from repro.simulator.platform import SimCore, TaskExecution
from repro.simulator.power import PowerMeter


def make_exec(cycles: float) -> TaskExecution:
    return TaskExecution(task=Task(cycles=cycles), remaining_cycles=cycles)


class TestIdealExecution:
    def test_full_run_times_and_energy(self):
        core = SimCore(0, TABLE_II)
        ex = make_exec(10.0)
        core.start(ex, 2.0, now=0.0)
        t_done = core.next_completion_time(0.0)
        assert t_done == pytest.approx(10.0 * 0.5)
        done = None
        core.advance(t_done)
        done = core.complete(t_done)
        assert done.finished_at == pytest.approx(5.0)
        # energy = power × time = (4.22/0.5) × 5 = 42.2 = L·E(p)
        assert done.energy_joules == pytest.approx(10.0 * 4.22)
        assert not core.busy

    def test_energy_equals_le_p_for_every_rate(self):
        for p in TABLE_II.rates:
            core = SimCore(0, TABLE_II)
            ex = make_exec(7.0)
            core.start(ex, p, now=0.0)
            t = core.next_completion_time(0.0)
            core.advance(t)
            done = core.complete(t)
            assert done.energy_joules == pytest.approx(7.0 * TABLE_II.energy(p))
            assert done.busy_seconds == pytest.approx(7.0 * TABLE_II.time(p))

    def test_partial_progress(self):
        core = SimCore(0, TABLE_II)
        ex = make_exec(10.0)
        core.start(ex, 2.0, now=0.0)
        core.advance(2.5)  # half the time → half the cycles
        assert ex.remaining_cycles == pytest.approx(5.0)

    def test_rate_change_mid_task(self):
        core = SimCore(0, TABLE_II)
        ex = make_exec(10.0)
        core.start(ex, 1.6, now=0.0)
        core.set_rate(3.0, now=3.125)  # 5 cycles done at 1.6
        assert ex.remaining_cycles == pytest.approx(5.0)
        t_done = core.next_completion_time(3.125)
        assert t_done == pytest.approx(3.125 + 5.0 * 0.33)
        core.advance(t_done)
        done = core.complete(t_done)
        # mixed-rate energy: 5·E(1.6) + 5·E(3.0)
        assert done.energy_joules == pytest.approx(5 * 3.375 + 5 * 7.1)

    def test_idle_time_booked_to_meter(self):
        core = SimCore(0, TABLE_II, meter=PowerMeter(idle_power=12.0, keep_trace=True))
        core.advance(4.0)
        assert core.meter.idle_joules == pytest.approx(48.0)
        assert core.meter.net_joules == 0.0

    def test_completion_in_infinite_when_idle(self):
        core = SimCore(0, TABLE_II)
        assert math.isinf(core.completion_in())
        assert math.isinf(core.next_completion_time(0.0))


class TestPreemption:
    def test_preempt_and_resume_conserves_cycles_and_energy(self):
        core = SimCore(0, TABLE_II)
        ex = make_exec(10.0)
        core.start(ex, 2.0, now=0.0)
        core.advance(2.0)  # 4 cycles done
        got = core.preempt(2.0)
        assert got is ex
        assert got.remaining_cycles == pytest.approx(6.0)
        assert got.preemptions == 1
        assert not core.busy
        # run something else, then resume
        other = make_exec(1.0)
        core.start(other, 3.0, now=2.0)
        t = core.next_completion_time(2.0)
        core.advance(t)
        core.complete(t)
        core.start(ex, 2.0, now=t)
        t2 = core.next_completion_time(t)
        core.advance(t2)
        done = core.complete(t2)
        assert done.energy_joules == pytest.approx(10.0 * 4.22)
        assert done.started_at == 0.0  # original first start preserved

    def test_preempt_idle_core_rejected(self):
        core = SimCore(0, TABLE_II)
        with pytest.raises(RuntimeError):
            core.preempt(0.0)

    def test_double_start_rejected(self):
        core = SimCore(0, TABLE_II)
        core.start(make_exec(5.0), 2.0, now=0.0)
        with pytest.raises(RuntimeError):
            core.start(make_exec(1.0), 2.0, now=0.0)

    def test_complete_unfinished_rejected(self):
        core = SimCore(0, TABLE_II)
        core.start(make_exec(5.0), 2.0, now=0.0)
        core.advance(1.0)
        with pytest.raises(RuntimeError):
            core.complete(1.0)

    def test_start_finished_execution_rejected(self):
        core = SimCore(0, TABLE_II)
        ex = make_exec(1.0)
        ex.remaining_cycles = 0.0
        with pytest.raises(ValueError):
            core.start(ex, 2.0, now=0.0)


class TestContention:
    def test_corunners_slow_progress(self):
        cont = ContentionModel(slowdown_per_corunner=0.1)
        core = SimCore(0, TABLE_II, contention=cont)
        ex = make_exec(10.0)
        core.start(ex, 2.0, now=0.0)
        core.set_co_runners(3, now=0.0)
        # effective tpc = 0.5·1.3
        assert core.completion_in() == pytest.approx(10.0 * 0.5 * 1.3)

    def test_contention_costs_extra_energy(self):
        cont = ContentionModel(slowdown_per_corunner=0.25)
        core = SimCore(0, TABLE_II, contention=cont)
        ex = make_exec(10.0)
        core.start(ex, 2.0, now=0.0)
        core.set_co_runners(2, now=0.0)
        t = core.next_completion_time(0.0)
        core.advance(t)
        done = core.complete(t)
        # 1.5× wall time at the same power → 1.5× energy
        assert done.energy_joules == pytest.approx(10.0 * 4.22 * 1.5)

    def test_memory_bound_fraction_floors_speedup(self):
        cont = ContentionModel(memory_bound_fraction=0.5)
        core = SimCore(0, TABLE_II, contention=cont)
        ex = make_exec(10.0)
        core.start(ex, 3.0, now=0.0)  # nominal tpc 0.33; reference 0.625
        expected_tpc = 0.5 * 0.33 + 0.5 * 0.625
        assert core.completion_in() == pytest.approx(10.0 * expected_tpc)

    def test_switch_overhead_burns_time_and_energy(self):
        cont = ContentionModel(switch_overhead_s=0.5)
        core = SimCore(0, TABLE_II, contention=cont)
        ex = make_exec(10.0)
        core.start(ex, 2.0, now=0.0)
        t = core.next_completion_time(0.0)
        assert t == pytest.approx(0.5 + 5.0)
        core.advance(t)
        done = core.complete(t)
        assert done.energy_joules == pytest.approx((5.5) * TABLE_II.power(2.0))

    def test_advance_into_overhead_window_is_noop(self):
        cont = ContentionModel(switch_overhead_s=1.0)
        core = SimCore(0, TABLE_II, contention=cont)
        core.start(make_exec(10.0), 2.0, now=0.0)
        core.advance(0.5)  # inside the overhead window — must not corrupt
        assert core.current.remaining_cycles == pytest.approx(10.0)

    def test_set_negative_corunners_rejected(self):
        core = SimCore(0, TABLE_II)
        with pytest.raises(ValueError):
            core.set_co_runners(-1, now=0.0)


_CORE_OPS = st.one_of(
    st.tuples(st.just("start"), st.sampled_from(TABLE_II.rates), st.floats(0.01, 50.0)),
    st.tuples(st.just("set_rate"), st.sampled_from(TABLE_II.rates)),
    st.tuples(st.just("rate ="), st.sampled_from(TABLE_II.rates)),
    st.tuples(st.just("set_co_runners"), st.integers(0, 6)),
    st.tuples(st.just("preempt")),
    st.tuples(st.just("advance"), st.floats(0.0, 3.0)),
)


class TestCachedStateConstants:
    """The per-(rate, co-runners) constants a core caches never go stale."""

    @settings(max_examples=200, deadline=None)
    @given(
        contention=st.sampled_from(
            [NO_CONTENTION, CALIBRATED_X86, ContentionModel(0.1, 0.3, 0.0)]
        ),
        ops=st.lists(_CORE_OPS, max_size=40),
    )
    def test_cache_matches_table_after_any_sequence(self, contention, ops):
        table = TABLE_II
        core = SimCore(0, table, contention=contention, meter=PowerMeter(keep_trace=True))
        now, co_runners = 0.0, 0
        for op, *args in ops:
            booked = len(core.meter._trace)
            rate_before = core.rate
            if op == "start":
                if core.busy:
                    continue
                core.start(make_exec(args[1]), args[0], now)
            elif op == "set_rate":
                core.set_rate(args[0], now)
            elif op == "rate =":
                core.rate = args[0]
            elif op == "set_co_runners":
                core.set_co_runners(args[0], now)
                co_runners = args[0]
            elif op == "preempt":
                if not core.busy:
                    continue
                core.preempt(now)
            else:  # advance, never past the running task's completion
                now = min(now + args[0], core.next_completion_time(now))
                core.advance(now)
            assert core.effective_time_per_cycle() == contention.effective_time_per_cycle(
                table.time(core.rate), table.time_per_cycle[0], co_runners
            )
            # progress booked by this op ran at the rate before it; a
            # switch-overhead window opened by start() at the new rate
            new = [seg for seg in core.meter._trace[booked:] if not seg.idle]
            if op == "start" and contention.switch_overhead_s > 0:
                overhead = new.pop()
                assert overhead.watts == table.power(core.rate)
            assert all(seg.watts == table.power(rate_before) for seg in new)


_BOOKING_OPS = st.one_of(
    st.tuples(st.just("start"), st.sampled_from(TABLE_II.rates), st.floats(0.01, 50.0)),
    st.tuples(st.just("set_rate"), st.sampled_from(TABLE_II.rates)),
    st.tuples(st.just("set_co_runners"), st.integers(0, 6)),
    st.tuples(st.just("preempt")),
    # complete a little past the finish: advance clips the overshoot
    # from the task's books but the meter still books the whole interval
    st.tuples(st.just("complete"), st.sampled_from([0.0, 1e-9, 1e-8])),
    st.tuples(st.just("advance"), st.floats(0.0, 3.0)),
)


class TestMeterBooking:
    """The core books its meter without the per-call checks; a shadow
    meter fed the same intervals through the checked ``record_*`` calls
    must end up with exactly the same books."""

    @settings(max_examples=200, deadline=None)
    @given(
        contention=st.sampled_from(
            [NO_CONTENTION, CALIBRATED_X86, ContentionModel(0.1, 0.3, 0.002)]
        ),
        idle_power=st.floats(0.1, 50.0),
        ops=st.lists(_BOOKING_OPS, max_size=40),
    )
    def test_books_match_checked_meter(self, contention, idle_power, ops):
        core = SimCore(0, TABLE_II, contention=contention,
                       meter=PowerMeter(idle_power=idle_power, keep_trace=True))
        shadow = PowerMeter(idle_power=idle_power, keep_trace=True)
        now = 0.0

        def book_to(t):
            # what SimCore.advance integrates from its last update to t
            last = core.last_update
            if t > last:
                if core.busy:
                    shadow.record_busy(last, t, TABLE_II.power(core.rate))
                else:
                    shadow.record_idle(last, t)

        for op, *args in ops:
            if op in ("preempt", "complete") and not core.busy:
                continue
            if op == "start":
                if core.busy:
                    continue
                book_to(now)
                core.start(make_exec(args[1]), args[0], now)
                if contention.switch_overhead_s > 0:
                    shadow.record_busy(now, now + contention.switch_overhead_s,
                                       TABLE_II.power(args[0]))
                continue
            if op == "complete":
                now = core.next_completion_time(now) + args[0]
            elif op == "advance":  # never past the running task's completion
                now = min(now + args[0], core.next_completion_time(now))
            book_to(now)
            if op == "set_rate":
                core.set_rate(args[0], now)
            elif op == "set_co_runners":
                core.set_co_runners(args[0], now)
            elif op == "preempt":
                core.preempt(now)
            elif op == "complete":
                core.complete(now)
            else:
                core.advance(now)
        meter = core.meter
        assert meter.busy_joules == shadow.busy_joules
        assert meter.idle_joules == shadow.idle_joules
        assert meter._last_end == shadow._last_end
        assert meter._trace == shadow._trace


class TestContentionModelValidation:
    def test_bad_coefficients(self):
        with pytest.raises(ValueError):
            ContentionModel(slowdown_per_corunner=-0.1)
        with pytest.raises(ValueError):
            ContentionModel(memory_bound_fraction=1.0)
        with pytest.raises(ValueError):
            ContentionModel(switch_overhead_s=-1.0)

    def test_is_ideal_flag(self):
        assert ContentionModel().is_ideal
        assert not ContentionModel(slowdown_per_corunner=0.1).is_ideal

    def test_stretch_factor_at_least_one(self):
        c = ContentionModel(slowdown_per_corunner=0.05, memory_bound_fraction=0.2)
        for tpc in (0.33, 0.5, 0.625):
            for m in range(4):
                assert c.stretch_factor(tpc, 0.625, m) >= 1.0 - 1e-12

    def test_effective_time_validation(self):
        c = ContentionModel()
        with pytest.raises(ValueError):
            c.effective_time_per_cycle(0.5, 0.6, -1)
        with pytest.raises(ValueError):
            c.effective_time_per_cycle(0.0, 0.6, 0)
