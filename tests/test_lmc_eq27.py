"""Equation 27: LMC's one-pass interactive core choice against its oracle.

:meth:`LMCOnlineScheduler.select_core` prices every core in one pass;
:func:`repro.verify.reference.choose_core_interactive` is the readable
argmin over :meth:`CostModel.interactive_marginal_cost`. They must pick
the same core, and a traced choice must record the oracle's costs bit
for bit. Cycle estimates enter the same pass, so an estimator that
returns a non-positive or non-finite count is rejected by name, for
both task kinds.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.rates import TABLE_II, rate_table_from_power_law
from repro.models.task import Task, TaskKind
from repro.obs import RecordingTracer
from repro.schedulers import LMCOnlineScheduler
from repro.simulator import run_online
from repro.verify.reference import choose_core_interactive

RE_ONLINE, RT_ONLINE = 0.4, 0.1
LITTLE = rate_table_from_power_law([0.6, 0.9, 1.2, 1.5], dynamic_coefficient=0.25, name="little")

RUNNING_KINDS = (None, TaskKind.INTERACTIVE, TaskKind.NONINTERACTIVE)


def _scheduler(tables, depths, tracer=None):
    sched = LMCOnlineScheduler(tables, len(tables), RE_ONLINE, RT_ONLINE, tracer=tracer)
    for j, depth in enumerate(depths):
        for i in range(depth):
            sched.policy.enqueue(j, 1.0 + i % 7)
    return sched


# each core: (table, waiting depth, running kind); a narrow depth range
# makes equal N_j, hence ties, common
cores = st.tuples(
    st.sampled_from([TABLE_II, LITTLE]),
    st.one_of(st.integers(0, 3), st.integers(0, 10**3)),
    st.sampled_from(RUNNING_KINDS),
)


class TestOracleProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(cores, min_size=1, max_size=6),
           st.floats(1e-6, 1e12, allow_nan=False, allow_infinity=False))
    def test_select_core_is_the_oracle_argmin(self, spec, cycles):
        tables = [t for t, _, _ in spec]
        depths = [d for _, d, _ in spec]
        views = [SimpleNamespace(running_kind=k) for _, _, k in spec]
        delayed = [d + (k is TaskKind.NONINTERACTIVE) for _, d, k in spec]
        task = Task(cycles=cycles, kind=TaskKind.INTERACTIVE, name="q")

        sched = _scheduler(tables, depths)
        want = choose_core_interactive(sched.policy.models, cycles, delayed)
        assert sched.select_core(task, views) == want

        tracer = RecordingTracer()
        traced = _scheduler(tables, depths, tracer=tracer)
        assert traced.select_core(task, views) == want
        (event,) = tracer.by_kind("lmc.interactive")
        costs = [m.interactive_marginal_cost(cycles, n)
                 for m, n in zip(traced.policy.models, delayed)]
        assert [c.hex() for c in event.data["costs"]] == [c.hex() for c in costs]
        assert event.data["delayed"] == delayed
        assert event.data["chosen"] == want
        assert event.data["cycles"] == cycles

    def test_homogeneous_ties_go_to_the_lowest_core(self):
        sched = _scheduler([TABLE_II] * 4, [2, 1, 1, 3])
        views = [SimpleNamespace(running_kind=None) for _ in range(4)]
        task = Task(cycles=0.01, kind=TaskKind.INTERACTIVE)
        assert sched.select_core(task, views) == 1
        # a running non-interactive task counts as one more delayed task
        views[1].running_kind = TaskKind.NONINTERACTIVE
        assert sched.select_core(task, views) == 2


class _ConstantEstimator:
    def __init__(self, value):
        self.value = value

    def estimate(self, task):
        return self.value

    def observe(self, task, cycles):
        pass


class TestEstimatorGuard:
    @pytest.mark.parametrize("kind", [TaskKind.INTERACTIVE, TaskKind.NONINTERACTIVE])
    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0, -1.0])
    def test_bad_estimate_is_rejected_naming_the_task(self, kind, bad):
        trace = [Task(cycles=0.01, arrival=0.0, kind=kind, name="first"),
                 Task(cycles=0.01, arrival=0.0, kind=kind, name="second")]
        sched = LMCOnlineScheduler(TABLE_II, 2, RE_ONLINE, RT_ONLINE,
                                   estimator=_ConstantEstimator(bad))
        with pytest.raises(ValueError, match=r"'first'.*positive and finite"):
            run_online(trace, sched, TABLE_II)

    def test_infinite_estimate_no_longer_piles_onto_core_zero(self):
        # the NaN costs of an infinite estimate used to send every
        # interactive task to core 0 without an error
        sched = LMCOnlineScheduler(TABLE_II, 2, RE_ONLINE, RT_ONLINE,
                                   estimator=_ConstantEstimator(float("inf")))
        views = [SimpleNamespace(running_kind=None) for _ in range(2)]
        with pytest.raises(ValueError, match="positive and finite"):
            sched.select_core(Task(cycles=0.01, kind=TaskKind.INTERACTIVE), views)

    def test_finite_estimate_drives_the_choice(self):
        sched = LMCOnlineScheduler(TABLE_II, 2, RE_ONLINE, RT_ONLINE,
                                   estimator=_ConstantEstimator(0.02))
        sched.policy.enqueue(0, 5.0)
        views = [SimpleNamespace(running_kind=None) for _ in range(2)]
        assert sched.select_core(Task(cycles=0.01, kind=TaskKind.INTERACTIVE), views) == 1
