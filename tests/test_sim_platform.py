"""Tests for simulated cores (progress/energy integration, preemption)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.models.rates import TABLE_II
from repro.models.task import Task
from repro.simulator.contention import CALIBRATED_X86, NO_CONTENTION, ContentionModel
from repro.simulator.platform import SimCore, TaskExecution


def make_exec(cycles: float) -> TaskExecution:
    return TaskExecution(task=Task(cycles=cycles), remaining_cycles=cycles)


class TestIdealExecution:
    def test_full_run_times_and_energy(self):
        core = SimCore(0, TABLE_II)
        ex = make_exec(10.0)
        core.start(ex, 2.0, now=0.0)
        t_done = core.next_completion_time()
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
            t = core.next_completion_time()
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
        t_done = core.next_completion_time()
        assert t_done == pytest.approx(3.125 + 5.0 * 0.33)
        core.advance(t_done)
        done = core.complete(t_done)
        # mixed-rate energy: 5·E(1.6) + 5·E(3.0)
        assert done.energy_joules == pytest.approx(5 * 3.375 + 5 * 7.1)

    def test_completion_in_infinite_when_idle(self):
        core = SimCore(0, TABLE_II)
        assert math.isinf(core.completion_in())
        assert math.isinf(core.next_completion_time())


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
        t = core.next_completion_time()
        core.advance(t)
        core.complete(t)
        core.start(ex, 2.0, now=t)
        t2 = core.next_completion_time()
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
        t = core.next_completion_time()
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
        t = core.next_completion_time()
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
        core = SimCore(0, table, contention=contention)
        now, co_runners = 0.0, 0
        for op, *args in ops:
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
                now = min(now + args[0], core.next_completion_time())
                core.advance(now)
            assert core.effective_time_per_cycle() == contention.effective_time_per_cycle(
                table.time(core.rate), table.time_per_cycle[0], co_runners
            )
            assert core._busy_watts == table.power(core.rate)


class TestLazyReaders:
    """``remaining_at`` and ``finished_by`` read what ``advance`` would
    leave, bit for bit, without integrating."""

    @settings(max_examples=200, deadline=None)
    @given(
        contention=st.sampled_from([NO_CONTENTION, CALIBRATED_X86]),
        rate=st.sampled_from(TABLE_II.rates),
        second_rate=st.sampled_from(TABLE_II.rates),
        cycles=st.floats(1e-6, 1e6),
        split=st.floats(0.0, 1.0),
        # the read lands before, on, or a little past the finish
        reach=st.sampled_from([0.0, 0.25, 0.5, 0.999, 1.0, 1.0 + 1e-12, 1.5]),
    )
    def test_reader_matches_advance(self, contention, rate, second_rate, cycles, split, reach):
        def core_at_breakpoint():
            core = SimCore(0, TABLE_II, contention=contention)
            core.start(make_exec(cycles), rate, 0.0)
            # one own breakpoint part-way, then a lazy stretch
            core.set_rate(second_rate, core.last_update + split * core.completion_in())
            return core

        lazy, eager = core_at_breakpoint(), core_at_breakpoint()
        now = lazy.last_update + reach * lazy.completion_in()
        before = (lazy.last_update, lazy.current.remaining_cycles)
        remaining = lazy.remaining_at(now)
        finished = lazy.finished_by(now)
        assert (lazy.last_update, lazy.current.remaining_cycles) == before  # no mutation
        if reach > 1.0 and now > lazy.next_completion_time() * (1 + 1e-9):
            return  # advance would raise the overrun guard here
        eager.advance(now)
        assert remaining == eager.current.remaining_cycles
        assert finished == eager.current.done

    def test_idle_core_reads_zero_and_unfinished(self):
        core = SimCore(0, TABLE_II)
        assert core.remaining_at(5.0) == 0.0
        assert not core.finished_by(5.0)
        assert math.isinf(core.next_completion_time())

    def test_next_completion_extends_from_last_update(self):
        core = SimCore(0, TABLE_II)
        ex = make_exec(10.0)
        core.start(ex, 2.0, now=1.0)
        # nothing integrates the core between its own breakpoints
        assert core.next_completion_time() == 1.0 + 10.0 * 0.5
        assert core.remaining_at(3.5) == 5.0
        assert ex.remaining_cycles == 10.0
        assert core.finished_by(6.0) and not core.finished_by(5.9)


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
