"""Runtime guards that must survive ``python -O``.

Each check here used to be an ``assert`` (stripped by ``-O``) and is now
a named exception or code that needs no narrowing. CI runs this file
under ``python -O`` as well as normally.
"""

import json
import math
import random

import pytest

import repro.core.budget as budget
from repro.core.batch_multi import WorkloadBasedGreedy
from repro.core.batch_single import brute_force_single_core
from repro.core.dynamic import DynamicCostIndex
from repro.models.cost import CoreSchedule, CostModel, Placement
from repro.models.rates import TABLE_II
from repro.models.task import Task, TaskKind
from repro.obs.metrics import MetricsRegistry
from repro.cli import main
from repro.schedulers import OLBOnlineScheduler
from repro.schedulers.yds import yds_schedule
from repro.simulator import run_batch, run_online
from repro.simulator.contention import ContentionModel
from repro.structures import RangeTree
from repro.verify import ALL_CHECKS, run_fuzz
from repro.verify.differential import DifferentialCheck
from repro.workloads import (
    JudgeTraceConfig,
    generate_judge_trace,
    generate_open_loop_trace,
    load_trace_csv,
    load_trace_jsonl,
    save_trace_csv,
    save_trace_jsonl,
)


class TestCostModel:
    def test_nan_backward_position_rejected(self):
        model = CostModel(TABLE_II, 0.4, 0.1)
        with pytest.raises(ValueError, match="backward position"):
            model.backward_position_cost(math.nan, TABLE_II.rates[0])
        with pytest.raises(ValueError, match="backward position"):
            model.best_rate_backward(math.nan)


class TestBruteForceSingleCore:
    def test_overflowing_costs_raise(self):
        model = CostModel(TABLE_II, 1e300, 1e300)
        with pytest.raises(ValueError, match="finite cost"):
            brute_force_single_core([Task(cycles=1e10)], model)


class TestYDS:
    def test_collapsed_window_raises(self):
        # Collapsing the first two critical intervals rounds task 0's
        # window down to zero length, so no interval can hold it.
        tasks = [
            Task(cycles=1.0, arrival=1.1, deadline=1.1000000000000003, task_id=0),
            Task(cycles=1.0, arrival=0.5820752265448588, deadline=0.5820752265448589, task_id=1),
            Task(cycles=1.0, arrival=0.7, deadline=0.8999999999999999, task_id=2),
        ]
        with pytest.raises(ValueError, match="no critical interval found"):
            yds_schedule(tasks)


class TestDynamicIndexBoundaries:
    """A full dominating range without a boundary node is a corrupted index."""

    @pytest.fixture
    def index(self):
        q = DynamicCostIndex(CostModel(TABLE_II, 0.4, 0.1))
        first = q.ranges.ranges[0]
        for c in range(1, first.hi + 3):  # fill range 0 and spill into range 1
            q.insert(float(c))
        assert len(q) > first.hi and q._edge[0] is q.tree.select(first.hi - 1)
        q._edge[0] = None
        return q

    def test_probe(self, index):
        with pytest.raises(RuntimeError, match="range 0 is full"):
            index.marginal_insert_cost(1e6)

    def test_insert_cascade(self, index):
        with pytest.raises(RuntimeError, match="range 0 is full"):
            index.insert(1e6)

    def test_delete_cascade(self, index):
        with pytest.raises(RuntimeError, match="range 0 is full"):
            index.delete(index.tree.min_node())


class TestRangeTreeValues:
    """NaN has no place in the descending order, and ±inf breaks ``range_delta``."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        tree = RangeTree()
        for v in (3.0, 1.0):
            tree.insert(v)
        for op in (tree.insert, tree.insert_ranked):
            with pytest.raises(ValueError, match=f"finite, got {value!r}"):
                op(value)
        tree.insert(2.0)
        assert tree.values() == [3.0, 2.0, 1.0]
        assert tree.count_ge(2.0) == 2
        tree.check_invariants()


class TestWorkloadBasedGreedy:
    def test_schedule_cost_of_no_schedules_raises(self):
        with pytest.raises(ValueError, match="at least one core schedule"):
            WorkloadBasedGreedy([CostModel(TABLE_II, 0.1, 0.4)]).schedule_cost([])


class TestEnergyBudget:
    def test_no_feasible_multiplier_raises(self, monkeypatch):
        # A solver that never fits the budget, although the min-rate
        # schedule does, breaks the search's premise.
        def never_fits(tasks, table, lam):
            return budget.BudgetSchedule(schedule=None, flow_time=0.0,
                                         energy=math.inf, multiplier=lam)

        monkeypatch.setattr(budget, "_solve_at", never_fits)
        tasks = [Task(cycles=1.0)]
        with pytest.raises(RuntimeError, match="no multiplier"):
            budget.schedule_with_energy_budget(tasks, TABLE_II, budget.min_energy(tasks, TABLE_II))


class TestMetricsRegistry:
    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        for make in (reg.gauge, lambda name: reg.histogram(name, [1.0])):
            with pytest.raises(ValueError, match="already registered as a counter"):
                make("x")


class _AlwaysFails(DifferentialCheck):
    name = "_always_fails"

    def generate(self, rng: random.Random) -> dict:
        return {"x": rng.randint(0, 9)}

    def run(self, case: dict) -> list[str]:
        return [f"planted divergence on {case['x']}"]


class TestFuzzArguments:
    def test_zero_max_failures_rejected(self, monkeypatch):
        # a sweep that stops at zero failures used to record one failure
        # anyway
        monkeypatch.setitem(ALL_CHECKS, "_always_fails", _AlwaysFails())
        with pytest.raises(ValueError, match="max_failures"):
            run_fuzz(seed=0, cases=4, checks=["_always_fails"], max_failures=0)

    def test_negative_cases_rejected(self):
        with pytest.raises(ValueError, match="cases"):
            run_fuzz(seed=0, cases=-3)

    @pytest.mark.parametrize("budget", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="budget"):
            run_fuzz(seed=0, cases=2, budget=budget)

    @pytest.mark.parametrize("flags", [
        ["--cases", "-3"],
        ["--cases", "2", "--max-failures", "0"],
        ["--cases", "2", "--budget", "-1"],
        ["--cases", "2", "--budget", "nan"],
    ])
    def test_cli_exits_2(self, flags, capsys):
        assert main(["fuzz", *flags]) == 2
        assert "error:" in capsys.readouterr().out


class TestDuplicateTaskIds:
    """Task ids key ``ideal_batch`` and the exact oracle, so a repeated or
    truncated id is rejected where a trace enters, naming the id."""

    @staticmethod
    def _twins():
        return [Task(cycles=1e9, arrival=0.0, task_id=1),
                Task(cycles=2e9, arrival=1.0, task_id=1)]

    def test_csv_loader_rejects_duplicate_id(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace_csv(self._twins(), path)
        with pytest.raises(ValueError, match="duplicate task_id 1"):
            load_trace_csv(path)

    def test_jsonl_loader_rejects_duplicate_id(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace_jsonl(self._twins(), path)
        with pytest.raises(ValueError, match="duplicate task_id 1"):
            load_trace_jsonl(path)

    @pytest.mark.parametrize("task_id", [1.7, True])
    def test_jsonl_loader_rejects_non_integral_id(self, tmp_path, task_id):
        # int() used to truncate both to id 1
        row = {"task_id": task_id, "name": "", "cycles": 1e9, "arrival": 0.0,
               "deadline": "inf", "kind": "batch"}
        path = tmp_path / "trace.jsonl"
        path.write_text('{"task_id": 2, "name": "", "cycles": 1e9, "arrival": 0.0, '
                        '"deadline": "inf", "kind": "batch"}\n' + json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=rf"trace\.jsonl:2: .*task_id"):
            load_trace_jsonl(path)

    @pytest.mark.parametrize("field, value", [("cycles", True), ("arrival", False),
                                              ("deadline", True), ("deadline", False)])
    def test_jsonl_loader_rejects_bool_number(self, tmp_path, field, value):
        # float() used to read true/false as 1.0/0.0
        row = {"task_id": 3, "name": "", "cycles": 1e9, "arrival": 0.0,
               "deadline": "inf", "kind": "batch", field: value}
        path = tmp_path / "trace.jsonl"
        path.write_text('{"task_id": 2, "name": "", "cycles": 1e9, "arrival": 0.0, '
                        '"deadline": "inf", "kind": "batch"}\n' + json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=rf"trace\.jsonl:2: bad trace row: {field} must be a number"):
            load_trace_jsonl(path)

    def test_run_online_rejects_duplicate_id(self):
        trace = [Task(cycles=1e8, arrival=0.0, kind=TaskKind.INTERACTIVE, task_id=7),
                 Task(cycles=1e8, arrival=0.5, kind=TaskKind.INTERACTIVE, task_id=7)]
        with pytest.raises(ValueError, match="duplicate task_id 7"):
            run_online(trace, OLBOnlineScheduler(TABLE_II, 2), TABLE_II)

    def test_run_batch_rejects_duplicate_id(self):
        rate = TABLE_II.max_rate
        plan = [CoreSchedule([Placement(Task(cycles=1e9, task_id=7), rate)], 0),
                CoreSchedule([Placement(Task(cycles=2e9, task_id=7), rate)], 1)]
        with pytest.raises(ValueError, match="duplicate task_id 7"):
            run_batch(plan, TABLE_II)


class TestNonFiniteContention:
    @pytest.mark.parametrize("field", ["slowdown_per_corunner", "switch_overhead_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejected_at_construction(self, field, value):
        # a NaN overhead used to run as no overhead (SimCore.start tests
        # overhead > 0); inf and a NaN slowdown stalled the batch run
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ContentionModel(**{field: value})


class TestOpenLoopGenerator:
    @pytest.mark.parametrize("field, args", [
        ("duration_s", (math.nan, 1.0, 0.1)),
        ("duration_s", (math.inf, 1.0, 0.1)),
        ("interactive_per_s", (10.0, math.inf, 0.1)),
        ("interactive_per_s", (10.0, math.nan, 0.1)),
        ("noninteractive_per_s", (10.0, 1.0, math.inf)),
    ])
    def test_non_finite_argument_rejected(self, field, args):
        # each of these used to loop forever, growing the arrival list
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            generate_open_loop_trace(*args)

    @pytest.mark.parametrize("field", ["noninteractive_median", "noninteractive_sigma"])
    def test_non_finite_size_parameter_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            generate_open_loop_trace(10.0, 1.0, 0.1, **{field: math.nan})


class TestJudgeTraceConfig:
    """Non-finite or negative knobs are rejected at construction, naming
    the field; each used to skew the trace silently or fail in ``Task``."""

    @pytest.mark.parametrize("field, value", [
        ("interactive_profile", (1.0, math.nan, 1.0)),
        ("interactive_profile", (1.0, math.inf, 1.0)),
        ("noninteractive_profile", (math.nan, 1.0)),
        ("noninteractive_profile", (-1.0, 2.0)),
        ("problem_weights", (0.3, math.nan, 0.2, 0.15, 0.1)),
        ("problem_weights", (0.3, math.inf, 0.2, 0.15, 0.1)),
        ("problem_medians", (7.2, math.nan, 18.0, 28.8, 46.8)),
        ("problem_medians", (7.2, 0.0, 18.0, 28.8, 46.8)),
        ("duration_s", math.nan),
        ("duration_s", math.inf),
        ("judging_sigma", -1.0),
        ("judging_sigma", math.nan),
        ("judging_sigma", math.inf),
    ])
    def test_bad_knob_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            JudgeTraceConfig(**{field: value})

    def test_zero_sigma_and_zero_weights_still_accepted(self):
        cfg = JudgeTraceConfig(judging_sigma=0.0, problem_weights=(0.0, 1.0, 0.0, 0.0, 0.0),
                               n_interactive=5, n_noninteractive=5, duration_s=10.0)
        trace = generate_judge_trace(cfg)
        judged = [t.cycles for t in trace if t.name.startswith("submit")]
        assert judged == pytest.approx([12.6] * 5)
