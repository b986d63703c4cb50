"""Tests for the differential fuzzer, plus the regressions it found.

The ``fuzz``-marked tests run a small seeded sweep of every registered
check (the CI job runs a bigger budgeted one via ``repro fuzz``). The
regression tests pin, as plain unit tests, every divergence the fuzzer
flushed out while this subsystem was built:

* ``marginal_insert_cost`` polluted the live aggregates (and tripped its
  own restore assertion) when the probed value dwarfed the queue;
* deleting a value that dominates a range's remaining sum left
  catastrophic-absorption residue in ``ξ``/``Δ``, drifting Equation 32
  by ~1e-5 relative;
* the simulator's completion test used an absolute cycle epsilon, so
  governor-sampled runs of large tasks crashed with ~1e-9 residual
  cycles ("completed with cycles remaining");
* the completion event's clock rounding overshot the final ``dt``, so a
  tiny task could be billed more energy than its physical upper bound;
* at clocks near 1e8–1e10 s (behind 1e9-cycle tasks) the completion
  event rounds by a clock ulp, which left a tiny task "completed with
  cycles remaining" and tripped the overrun guard of a governed giant;
  the simulator now drops up to ``finish_tolerance`` cycles of residue;
* the online audit's absolute energy/busy slack is finer than that
  dropped residue for sub-gigacycle tasks and at large clocks, so the
  ``online_extreme`` check re-judges those two bounds with it.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.dynamic import DynamicCostIndex, NaiveCostIndex
from repro.models.cost import CostModel
from repro.models.rates import RateTable
from repro.verify import ALL_CHECKS, render_repro, replay, run_case, run_fuzz, shrink
from repro.verify.differential import DifferentialCheck
from repro.verify.fuzz import FuzzFailure


# ---------------------------------------------------------------------------
# fuzzer machinery
# ---------------------------------------------------------------------------

@pytest.mark.fuzz
class TestFuzzSweep:
    def test_seeded_sweep_is_clean(self):
        report = run_fuzz(seed=0, cases=25)
        assert report.ok, [f.failures for f in report.failures]
        assert report.cases_run == 25 * len(ALL_CHECKS)

    def test_case_generation_is_deterministic(self):
        for name, check in ALL_CHECKS.items():
            a = check.generate(random.Random(f"7:{name}:3"))
            b = check.generate(random.Random(f"7:{name}:3"))
            assert a == b, name


class TestShrinker:
    def test_shrinks_to_single_trigger(self):
        class LengthCheck:
            name = "_tmp_length"
            list_keys = ("items",)

            def generate(self, rng):  # pragma: no cover - not used
                return {"items": []}

            def run(self, case):
                return ["boom"] if 13.0 in case["items"] else []

            shrink_candidates = ALL_CHECKS["wbg"].__class__.shrink_candidates

        check = LengthCheck()
        ALL_CHECKS[check.name] = check
        try:
            case = {"items": [float(i) for i in range(20)] + [13.0]}
            small, fails = shrink(check.name, case)
            assert fails == ["boom"]
            assert small["items"] == [13.0]
        finally:
            del ALL_CHECKS[check.name]

    def test_run_case_turns_exceptions_into_failures(self):
        # malformed case: missing keys must not crash the fuzz loop
        failures = run_case("dominating", {})
        assert failures and "KeyError" in failures[0]

    def test_render_repro_is_valid_python(self):
        fail = FuzzFailure(
            check="dominating",
            seed_key="0:dominating:1",
            case={"table": {"rates": [1.0], "energy": [1.0], "time": [1.0]},
                  "re": 1.0, "rt": 1.0},
            failures=["kb=1: mismatch"],
        )
        src = render_repro(fail)
        compile(src, "<repro>", "exec")
        assert "replay('dominating'" in src


class _PlantedCheck(DifferentialCheck):
    """Fails whenever the generated list contains a value >= 5."""

    name = "_planted"
    list_keys = ("items",)

    def generate(self, rng: random.Random) -> dict:
        return {"items": [rng.randint(0, 9) for _ in range(rng.randint(2, 8))]}

    def run(self, case: dict) -> list[str]:
        bad = [v for v in case["items"] if v >= 5]
        return [f"planted divergence on {bad}"] if bad else []


class TestFuzzReport:
    """What a report says: which counterexample, and how much work ran."""

    def test_planted_failure_reports_the_lowest_case_index(self, monkeypatch):
        monkeypatch.setitem(ALL_CHECKS, "_planted", _PlantedCheck())

        def key(report):
            return [
                (f.check, f.seed_key, f.case, f.failures,
                 f.shrunk_case, f.shrunk_failures)
                for f in report.failures
            ]

        for max_failures in (1, 2, 3):
            report = run_fuzz(seed=5, cases=12, checks=["_planted"],
                              max_failures=max_failures)
            assert not report.ok
            assert len(report.failures) == max_failures
            # the winner is the lowest case index, shrunk to one trigger
            assert report.failures[0].seed_key == "5:_planted:0"
            assert report.failures[0].shrunk_case == {"items": [8]}
            # cases_run is the consumed case indices × checks (one check
            # here): every index up to the last failure, and no further
            consumed = int(report.failures[-1].seed_key.rsplit(":", 1)[1]) + 1
            assert report.cases_run == consumed
            # a rerun reports the same failures and byte-identical repros
            again = run_fuzz(seed=5, cases=12, checks=["_planted"],
                             max_failures=max_failures)
            assert key(again) == key(report)
            assert again.cases_run == report.cases_run


# ---------------------------------------------------------------------------
# regressions found by the fuzzer (each verified failing pre-fix)
# ---------------------------------------------------------------------------

class TestFoundRegressions:
    def test_marginal_probe_leaves_aggregates_untouched(self):
        # found by: python -m repro fuzz (case 0:lmc:20, shrunk)
        # probing 1e6 cycles against a queue holding one 0.001-cycle task
        # left ulp-of-1e6 residue in ξ/Δ and tripped the probe's own
        # restore assertion
        model = CostModel(RateTable([0.5], [8.463068180793758], [2.0]),
                          3.914594730213029, 3.6703221510345747)
        idx = DynamicCostIndex(model)
        idx.insert(0.001)
        before = (idx._x[:], idx._d[:], idx.total_cost)
        first = idx.marginal_insert_cost(1_000_000.0)
        assert (idx._x[:], idx._d[:], idx.total_cost) == before
        # repeated probes must be bit-identical (no accumulating drift)
        for _ in range(50):
            assert idx.marginal_insert_cost(1_000_000.0) == first
        assert (idx._x[:], idx._d[:], idx.total_cost) == before

    def test_deleting_dominant_value_does_not_corrupt_cost(self):
        # found by: python -m repro fuzz (case 2:dynamic:31, shrunk)
        # deleting 1e6 cycles from a queue whose only other task has 1e-6
        # left the incremental Equation 32 ~7.6e-6 relative off the
        # from-scratch value (Re=1e6 amplifies the ξ residue)
        model = CostModel(
            RateTable([1.0, 2.0, 4.0, 8.0], [0.5, 1.0, 2.5, 3.5],
                      [1.0, 0.5, 0.25, 0.125]),
            1e6, 1.0,
        )
        fast = DynamicCostIndex(model)
        naive = NaiveCostIndex(model, fast.ranges)
        fast.insert(1e-06)
        naive.insert(1e-06)
        big = fast.insert(1e6)
        naive.insert(1e6)
        fast.delete(big)
        naive.delete(1e6)
        assert math.isclose(fast.total_cost, naive.total_cost,
                            rel_tol=1e-12, abs_tol=1e-12)
        fast.check_invariants()

    def test_governor_sampled_large_task_completes(self):
        # found by: python -m repro fuzz (case 0:online:163, shrunk)
        # 10⁴ cycles under 1 Hz governor sampling accumulate ~6e-9 residual
        # cycles; the old absolute completion epsilon (1e-9) raised
        # "completed with cycles remaining"
        replay("online", {
            "re": 1.0, "rt": 1.0,
            "tables": [{"rates": [23.0], "energy": [6.44209250651405],
                        "time": [3.004694523879216]}],
            "trace": [{"arrival": 6.249409487735066, "cycles": 10000.0,
                       "kind": "noninteractive"}],
        })

    def test_interactive_large_task_completes(self):
        # found by: python -m repro fuzz (case 0:online:126, shrunk)
        # same completion-epsilon failure on the interactive (preempting)
        # path with a different residual
        replay("online", {
            "re": 1.0, "rt": 1.0,
            "tables": [{"rates": [0.8597821308525292],
                        "energy": [2.439895927700454],
                        "time": [1.1630853493180136]}],
            "trace": [{"arrival": 6.73258005922427, "cycles": 10000.0,
                       "kind": "interactive"}],
        })

    def test_tiny_task_energy_within_physical_bounds(self):
        # found by: python -m repro fuzz (case 0:online:112, shrunk)
        # the completion event's clock rounding overshot the final dt, so
        # a 1e-6-cycle task booked watts·overshoot ≈ 3.4e-7 relative MORE
        # energy than cycles·E(pmax) allows
        replay("online", {
            "re": 1.0, "rt": 1.0,
            "tables": [{"rates": [2.0], "energy": [5001.0], "time": [0.5]}],
            "trace": [{"arrival": 3.03044105234198, "cycles": 10000.0,
                       "kind": "interactive"},
                      {"arrival": 5.04200072827672, "cycles": 1e-06,
                       "kind": "interactive"}],
        })

    def test_governed_giant_task_does_not_trip_overrun_guard(self):
        # found by: python -m repro fuzz (case 0:online_extreme:3, shrunk)
        # a 1e9-cycle task's remainder rounds at ulp(1e9) ≈ 1.2e-7 cycles
        # per governor sample; the absolute 1e-6 overrun slack raised
        # "core 0 overran task" near its finish
        replay("online_extreme", {
            "re": 1.0, "rt": 1.0, "style": "same-instant",
            "tables": [{"rates": [1.0], "energy": [5.401021908737367], "time": [1.0]}],
            "trace": [{"arrival": 2.3184049090086156, "cycles": 1e9,
                       "kind": "noninteractive"}],
        })

    def test_tiny_task_at_a_large_clock_completes(self):
        # found by: python -m repro fuzz (case 0:online_extreme:8, shrunk)
        # behind a 1e9-cycle task the clock reads ~2.5e8 s, where one ulp
        # is 3e-8 s; the tiny task's completion event rounded short and
        # left 1.2e-8 cycles, which raised "completed with cycles remaining"
        # (now dropped, within finish_tolerance)
        replay("online_extreme", {
            "re": 1.0, "rt": 1.0, "style": "storm",
            "tables": [{"rates": [4.0], "energy": [1.75], "time": [0.25]}],
            "trace": [{"arrival": 898.8337094824091, "cycles": 1e9, "kind": "interactive"},
                      {"arrival": 1535.1538286159698, "cycles": 0.004572999952012651,
                       "kind": "interactive"}],
        })

    def test_sub_gigacycle_task_done_residue_within_bounds(self):
        # found by: python -m repro fuzz (case 0:online_extreme:58, shrunk)
        # a 0.31-gigacycle task counts as done with up to CYCLE_EPS cycles
        # left; at 1.9 J per gigacycle that is more than the audit's 1e-9 J
        # absolute slack, so a correct run failed "record-energy-bounds"
        # (online_extreme re-judges it less the dropped residue)
        replay("online_extreme", {
            "re": 1.0, "rt": 1.0, "style": "same-instant",
            "tables": [{"rates": [23.0], "energy": [1.903901407340571],
                        "time": [2.604087310618047]}],
            "trace": [{"arrival": 7.868643208636168, "cycles": 93925580.28153771,
                       "kind": "noninteractive"},
                      {"arrival": 7.868643208636168, "cycles": 0.31279792766307274,
                       "kind": "noninteractive"}],
        })

    def test_tiny_task_behind_two_giants_completes_within_bounds(self):
        # found by: python -m repro fuzz (case 4:online_extreme:1207, shrunk)
        # behind two 1e9-cycle tasks at 8.7 s per cycle the clock reads
        # ~1.7e10 s, where one ulp is 3.8e-6 s; the tiny last task must
        # complete, stay inside its clock-quantised span (the audit's
        # record-busy-in-span, unchanged) and miss its busy/energy lower
        # bounds by no more than the dropped residue
        replay("online_extreme", {
            "re": 1.0, "rt": 1.0, "style": "bursts",
            "tables": [{"rates": [0.11449054914475025], "energy": [6.748412618938935],
                        "time": [8.73434538894299]}],
            "trace": [{"arrival": 2.770598969928365, "cycles": 1e9, "kind": "noninteractive"},
                      {"arrival": 502.3626376887376, "cycles": 1e9, "kind": "noninteractive"},
                      {"arrival": 809.6987613997567, "cycles": 0.0020668242757674034,
                       "kind": "noninteractive"}],
        })

    def test_tiny_batch_task_at_a_large_clock_completes(self):
        # found by: the exact_sim check (batch mode, shrunk)
        # after 2.25e6 s of giants the clock's ulp is 4.7e-10 s, so the
        # 0.001-cycle task's completion instant rounds 3.7e-9 cycles
        # short; the batch loop's own "done" test ignored the clock
        # residue that SimCore.complete accepts, re-timed the task to the
        # same instant forever and stopped with "failed to converge"
        replay("exact_sim", {
            "mode": "batch",
            "tables": [{"rates": [1.0, 2.0, 4.0, 8.0], "energy": [1.0, 9.5, 15.0, 18.125],
                        "time": [1.0, 0.5, 0.25, 0.125]}],
            "plan": [[0, 1e6, 0], [0, 1e6, 0], [0, 1e6, 2], [0, 0.001, 3]],
        })

    def test_batch_residue_carries_to_later_tasks(self):
        # found by: the exact_sim check (batch mode, shrunk), a bound fix
        # a giant may complete up to its CYCLE_EPS residue early (2e-3 s
        # here), which moves every later task on its core; the oracle's
        # bound adds up the residues along each core's plan
        replay("exact_sim", {
            "mode": "batch",
            "tables": [{"rates": [0.5], "energy": [3.496299870076303], "time": [2.0]}] * 3,
            "plan": [[2, 1e-06, 0], [1, 0.001, 0], [1, 1e6, 0], [1, 0.001, 0], [2, 1e6, 0]],
        })
