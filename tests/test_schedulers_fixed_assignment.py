"""Tests for the fixed-assignment (plan replay) online policy."""

import pytest

from repro.governors import Governor
from repro.models.cost import CoreSchedule, Placement
from repro.models.rates import TABLE_II
from repro.models.task import Task, TaskKind
from repro.schedulers import FixedAssignmentScheduler, olb_plan
from repro.simulator import run_batch, run_online


class MaxGovernor(Governor):
    """Always the table maximum, whatever the load."""

    def on_sample(self, load, current_rate):
        return self.table.max_rate


def as_trace(plan):
    return [
        Task(cycles=pl.task.cycles, arrival=0.0, kind=TaskKind.NONINTERACTIVE,
             name=pl.task.name, task_id=pl.task.task_id)
        for sched in plan for pl in sched.placements
    ]


class TestConstruction:
    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            FixedAssignmentScheduler([])
        t = Task(cycles=1.0)
        a = CoreSchedule([Placement(t, 2.0)], core_index=0)
        b = CoreSchedule([Placement(t, 2.0)], core_index=1)
        with pytest.raises(ValueError, match="twice"):
            FixedAssignmentScheduler([a, b])
        with pytest.raises(ValueError, match="duplicate core_index"):
            FixedAssignmentScheduler([a, CoreSchedule([], core_index=0)])

    def test_unknown_task_rejected_at_selection(self):
        plan = [CoreSchedule([Placement(Task(cycles=1.0), 2.0)], core_index=0)]
        policy = FixedAssignmentScheduler(plan)
        stranger = Task(cycles=1.0)
        with pytest.raises(ValueError, match="not in the plan"):
            policy.select_core(stranger, [])


class TestReplayFidelity:
    def test_replay_matches_batch_runner_at_max_rate(self):
        """Same lanes, max-rate governor ⇒ identical costs both ways."""
        tasks = [Task(cycles=float(c), name=f"t{c}") for c in (40, 10, 70, 25, 55)]
        plan = olb_plan(tasks, TABLE_II, 2)  # fixed max-rate plan
        batch = run_batch(plan, TABLE_II).cost(0.1, 0.4)

        governors = [MaxGovernor(TABLE_II) for _ in range(2)]
        online = run_online(
            as_trace(plan), FixedAssignmentScheduler(plan), TABLE_II,
            governors=governors,
        ).cost(0.1, 0.4)

        assert online.total_cost == pytest.approx(batch.total_cost, rel=1e-9)
        assert online.energy_joules == pytest.approx(batch.energy_joules, rel=1e-9)
        assert online.makespan == pytest.approx(batch.makespan, rel=1e-9)

    def test_lane_order_respected(self):
        t1, t2 = Task(cycles=30.0, name="first"), Task(cycles=1.0, name="second")
        plan = [CoreSchedule([Placement(t1, 3.0), Placement(t2, 3.0)], core_index=0)]
        governors = [MaxGovernor(TABLE_II)]
        res = run_online(as_trace(plan), FixedAssignmentScheduler(plan), TABLE_II,
                         governors=governors)
        by_name = {r.task.name: r for r in res.records}
        # FIFO per the plan even though "second" is much shorter
        assert by_name["second"].first_start == pytest.approx(by_name["first"].finish)

    def test_all_tasks_complete_across_cores(self):
        tasks = [Task(cycles=float(5 + i)) for i in range(9)]
        plan = olb_plan(tasks, TABLE_II, 3)
        governors = [MaxGovernor(TABLE_II) for _ in range(3)]
        res = run_online(as_trace(plan), FixedAssignmentScheduler(plan), TABLE_II,
                         governors=governors)
        assert len(res.records) == 9
        # every record landed on its planned core
        planned = {
            pl.task.task_id: s.core_index for s in plan for pl in s.placements
        }
        for rec in res.records:
            assert rec.core == planned[rec.task.task_id]
