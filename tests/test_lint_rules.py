"""Per-rule positive/negative fixtures for the ``repro.lint`` catalog.

Every rule gets at least one snippet that triggers it and one that
proves a clean pass, plus coverage of the suppression-directive
machinery the runner wraps around them.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import Project, run_lint


def lint(sources: dict[str, str], **kw):
    return run_lint(Project.from_sources(sources), **kw)


def codes(report) -> list[str]:
    return [f.rule for f in report.findings]


SCHED_INIT_OK = '__all__ = ["good_plan", "GoodScheduler"]\n'


class TestRP001ToleranceLiterals:
    def test_flags_raw_epsilon(self):
        r = lint({"core/x.py": "EPS = 1e-9\n"})
        assert codes(r) == ["RP001"]
        assert "1e-09" in r.findings[0].message

    def test_flags_deeply_nested_literal(self):
        r = lint({"analysis/x.py": "def f(a):\n    return max(a, 1e-7) * 2\n"})
        assert codes(r) == ["RP001"]

    def test_tolerances_module_is_exempt(self):
        r = lint({"models/tolerances.py": "REL_TOL = 1e-9\nABS_TOL = 1e-12\n"})
        assert r.ok

    def test_ordinary_floats_pass(self):
        r = lint({"core/x.py": "a = 0.5\nb = 1.0\nc = -3.25\nd = 1e6\ne = 0.0\n"})
        assert r.ok

    def test_integers_pass(self):
        r = lint({"core/x.py": "n = 1\nm = 10**-9\n"})
        assert r.ok


class TestRP002UnseededRandom:
    def test_flags_global_rng_call_in_kernel(self):
        r = lint({"core/x.py": "import random\nv = random.random()\n"})
        assert codes(r) == ["RP002"]

    def test_flags_np_random_in_simulator(self):
        r = lint({"simulator/x.py": "import numpy as np\nv = np.random.uniform()\n"})
        assert codes(r) == ["RP002"]

    def test_flags_from_import_of_random(self):
        r = lint({"structures/x.py": "from random import shuffle\n"})
        assert codes(r) == ["RP002"]

    def test_seeded_instances_pass(self):
        r = lint({
            "structures/x.py": "import random\nrng = random.Random(7)\nv = rng.random()\n",
            "schedulers/y.py": "import numpy as np\nrng = np.random.default_rng(0)\n",
        })
        assert r.ok

    def test_out_of_scope_module_passes(self):
        r = lint({"analysis/x.py": "import random\nv = random.random()\n"})
        assert r.ok


class TestRP003WallClock:
    def test_flags_time_time_in_simulator(self):
        r = lint({"simulator/x.py": "import time\nt = time.time()\n"})
        assert codes(r) == ["RP003"]

    def test_flags_datetime_now_in_core(self):
        r = lint({"core/x.py": "from datetime import datetime\nt = datetime.now()\n"})
        assert codes(r) == ["RP003"]

    def test_flags_perf_counter_in_governor(self):
        r = lint({"governors/x.py": "import time\nt = time.perf_counter()\n"})
        assert codes(r) == ["RP003"]

    def test_sim_clock_passes(self):
        r = lint({"simulator/x.py": "def f(sim):\n    return sim.now\n"})
        assert r.ok

    def test_out_of_scope_module_passes(self):
        r = lint({"verify/x.py": "import time\nt = time.monotonic()\n"})
        assert r.ok


class TestRP004FloatEquality:
    def test_flags_eq_against_float_literal(self):
        r = lint({"core/x.py": "def f(a):\n    return a == 1.5\n"})
        assert codes(r) == ["RP004"]

    def test_flags_neq_against_zero(self):
        r = lint({"core/x.py": "def f(a):\n    return a != 0.0\n"})
        assert codes(r) == ["RP004"]

    def test_isclose_passes(self):
        r = lint({"core/x.py": "import math\ndef f(a):\n    return math.isclose(a, 1.5)\n"})
        assert r.ok

    def test_integer_equality_passes(self):
        r = lint({"core/x.py": "def f(a):\n    return a == 3\n"})
        assert r.ok

    def test_outside_core_passes(self):
        r = lint({"simulator/x.py": "def f(a):\n    return a == 1.5\n"})
        assert r.ok


class TestRP005Print:
    def test_flags_print_in_library_code(self):
        r = lint({"workloads/x.py": "print('hi')\n"})
        assert codes(r) == ["RP005"]

    def test_cli_and_reporting_are_exempt(self):
        r = lint({
            "cli.py": "print('hi')\n",
            "analysis/reporting.py": "print('hi')\n",
        })
        assert r.ok

    def test_log_callback_passes(self):
        r = lint({"verify/x.py": "def f(log):\n    log('hi')\n"})
        assert r.ok


class TestRP006SchedulerContract:
    def test_unexported_plan_function_flagged(self):
        r = lint({
            "schedulers/__init__.py": SCHED_INIT_OK,
            "schedulers/foo.py": "def foo_plan(tasks):\n    return []\n",
        })
        assert codes(r) == ["RP006"]
        assert "foo_plan" in r.findings[0].message

    def test_unexported_scheduler_class_flagged(self):
        r = lint({
            "schedulers/__init__.py": SCHED_INIT_OK,
            "schedulers/foo.py": "class FooScheduler:\n    pass\n",
        })
        assert codes(r) == ["RP006"]

    def test_exported_names_pass(self):
        r = lint({
            "schedulers/__init__.py": SCHED_INIT_OK,
            "schedulers/good.py": "def good_plan(tasks):\n    return []\n\n\nclass GoodScheduler:\n    pass\n",
        })
        assert r.ok

    def test_private_and_helper_names_ignored(self):
        r = lint({
            "schedulers/__init__.py": SCHED_INIT_OK,
            "schedulers/foo.py": "def _hidden_plan(t):\n    return []\n\n\ndef helper(t):\n    return []\n",
        })
        assert r.ok

    def test_missing_all_flagged(self):
        r = lint({
            "schedulers/__init__.py": "from schedulers.foo import foo_plan\n",
            "schedulers/foo.py": "def foo_plan(tasks):\n    return []\n",
        })
        assert codes(r) == ["RP006"]
        assert "__all__" in r.findings[0].message

    def test_skipped_without_package_init(self):
        r = lint({"schedulers/foo.py": "def foo_plan(tasks):\n    return []\n"})
        assert r.ok


class TestRP007PoolBoundary:
    def test_flags_multiprocessing_import(self):
        r = lint({"perf/x.py": "import multiprocessing\n"})
        assert codes(r) == ["RP007"]
        assert "plain loops" in r.findings[0].message

    def test_flags_concurrent_futures_import(self):
        r = lint({"verify/x.py": "from concurrent.futures import ProcessPoolExecutor\n"})
        assert codes(r) == ["RP007"]

    def test_flags_submodule_import(self):
        r = lint({"analysis/x.py": "import multiprocessing.pool\n"})
        assert codes(r) == ["RP007"]

    def test_flags_pool_imports_in_every_package(self):
        # no package is exempt, the former pool home parallel/ included
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        packages = sorted(p.name for p in src.iterdir() if (p / "__init__.py").exists())
        assert "lint" in packages and "parallel" not in packages
        sources = {f"{pkg}/x.py": "import multiprocessing\n" for pkg in packages}
        sources["cli.py"] = "import concurrent.futures\n"
        sources["parallel/executor.py"] = (
            "import multiprocessing\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
        )
        r = lint(sources)
        assert codes(r) == ["RP007"] * (len(sources) + 1)
        assert "parallel/executor.py" in {f.path for f in r.findings}

    def test_lookalike_names_pass(self):
        r = lint({"core/x.py": "import concurrency_utils\nfrom multi import processing\n"})
        assert r.ok


class TestRP008BareAssert:
    def test_flags_assert(self):
        r = lint({"core/x.py": "def f(x):\n    assert x is not None\n    return x\n"})
        assert codes(r) == ["RP008"]
        assert "python -O" in r.findings[0].message

    def test_flags_assert_in_any_package(self):
        r = lint({"obs/x.py": "assert True\n", "verify/y.py": "assert 1\n"})
        assert codes(r) == ["RP008", "RP008"]

    def test_lint_package_is_exempt(self):
        r = lint({"lint/x.py": "def f(tree):\n    assert tree is not None\n"})
        assert r.ok

    def test_raise_passes(self):
        r = lint({"core/x.py": (
            "def f(x):\n"
            "    if x is None:\n"
            "        raise ValueError('x is required')\n"
            "    return x\n"
        )})
        assert r.ok

    def test_justified_suppression(self):
        r = lint({"core/x.py": (
            "def check_invariants(x):\n"
            "    assert x  # repro-lint: disable=RP008 -- callers catch AssertionError\n"
        )})
        assert r.ok


class TestSuppressions:
    def test_justified_suppression_silences_finding(self):
        r = lint({
            "core/x.py": "EPS = 1e-9  # repro-lint: disable=RP001 -- locally justified\n"
        })
        assert r.ok
        assert [f.rule for f in r.suppressed] == ["RP001"]

    def test_suppression_only_covers_named_rule(self):
        r = lint({
            "core/x.py": "EPS = 1e-9  # repro-lint: disable=RP004 -- wrong code\n"
        })
        # RP001 still fires; the RP004 suppression is unused → RP000.
        assert sorted(codes(r)) == ["RP000", "RP001"]

    def test_missing_justification_is_rp000(self):
        r = lint({"core/x.py": "EPS = 1e-9  # repro-lint: disable=RP001\n"})
        assert codes(r) == ["RP000"]
        assert "justification" in r.findings[0].message

    def test_unknown_code_is_rp000(self):
        r = lint({"core/x.py": "x = 1  # repro-lint: disable=RP999 -- no such rule\n"})
        assert codes(r) == ["RP000"]
        assert "unknown rule code" in r.findings[0].message

    def test_empty_code_list_is_rp000(self):
        r = lint({"core/x.py": "x = 1  # repro-lint: disable= -- what\n"})
        assert codes(r) == ["RP000"]

    def test_rp000_cannot_be_suppressed(self):
        r = lint({"core/x.py": "x = 1  # repro-lint: disable=RP000 -- nice try\n"})
        assert "RP000" in codes(r)

    def test_directive_inside_docstring_is_inert(self):
        r = lint({
            "core/x.py": '"""Example: # repro-lint: disable=RP001 -- doc only."""\nx = 1\n'
        })
        assert r.ok

    def test_suppression_applies_only_to_its_line(self):
        r = lint({
            "core/x.py": (
                "A = 1e-9  # repro-lint: disable=RP001 -- first only\n"
                "B = 1e-9\n"
            )
        })
        assert codes(r) == ["RP001"]
        assert r.findings[0].line == 2


class TestRunnerMechanics:
    def test_syntax_error_is_reported_not_raised(self):
        r = lint({"core/x.py": "def broken(:\n"})
        assert codes(r) == ["RP000"]
        assert "syntax error" in r.findings[0].message

    def test_select_restricts_rules(self):
        src = {"core/x.py": "import random\nv = random.random()\nEPS = 1e-9\n"}
        assert codes(lint(src, select=["RP001"])) == ["RP001"]
        assert codes(lint(src, select=["RP002"])) == ["RP002"]

    def test_ignore_drops_rule(self):
        src = {"core/x.py": "EPS = 1e-9\n"}
        assert lint(src, ignore=["RP001"]).ok

    def test_unknown_select_code_raises(self):
        with pytest.raises(KeyError):
            lint({"core/x.py": "x = 1\n"}, select=["RP999"])

    def test_findings_sorted_by_location(self):
        r = lint({
            "core/b.py": "A = 1e-9\nB = 1e-9\n",
            "core/a.py": "C = 1e-9\n",
        })
        locs = [(f.path, f.line) for f in r.findings]
        assert locs == sorted(locs)
