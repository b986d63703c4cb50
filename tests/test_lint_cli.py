"""End-to-end coverage of the ``repro lint`` CLI subcommand.

Exercises exit codes (0 clean / 1 findings / 2 usage error), the text
and JSON reporters, ``--select``/``--ignore``, ``--list-rules`` and the
baseline write → reload → clean-run cycle against real temp trees.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.lint import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS


def make_tree(tmp_path, sources: dict[str, str]):
    for rel, text in sources.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
    return tmp_path


DIRTY = {"core/x.py": "EPS = 1e-9\n"}
CLEAN = {"core/x.py": "import math\n\nx = math.pi\n"}


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        tree = make_tree(tmp_path, CLEAN)
        assert main(["lint", str(tree)]) == EXIT_CLEAN
        assert "OK: 0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        tree = make_tree(tmp_path, DIRTY)
        assert main(["lint", str(tree)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "core/x.py:1" in out and "RP001" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope")]) == EXIT_ERROR
        assert "error" in capsys.readouterr().out

    def test_unknown_select_code_exits_two(self, tmp_path, capsys):
        tree = make_tree(tmp_path, CLEAN)
        assert main(["lint", str(tree), "--select", "RP999"]) == EXIT_ERROR
        assert "unknown rule code" in capsys.readouterr().out


class TestReporting:
    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        tree = make_tree(tmp_path, DIRTY)
        assert main(["lint", str(tree), "--format", "json"]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["counts_by_rule"] == {"RP001": 1}
        assert payload["findings"][0]["path"] == "core/x.py"

    def test_list_rules_names_all_codes(self, capsys):
        assert main(["lint", "--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for code in ("RP000", "RP001", "RP002", "RP003", "RP004", "RP005", "RP006",
                     "RP007", "RP008"):
            assert code in out

    def test_verbose_lists_suppressions(self, tmp_path, capsys):
        tree = make_tree(tmp_path, {
            "core/x.py": "EPS = 1e-9  # repro-lint: disable=RP001 -- test fixture\n"
        })
        assert main(["lint", str(tree), "--verbose"]) == EXIT_CLEAN
        assert "suppressed (justified in-line)" in capsys.readouterr().out

    def test_select_and_ignore(self, tmp_path, capsys):
        tree = make_tree(tmp_path, {
            "core/x.py": "import random\nEPS = 1e-9\nv = random.random()\n"
        })
        assert main(["lint", str(tree), "--select", "RP001"]) == EXIT_FINDINGS
        assert "RP002" not in capsys.readouterr().out
        assert main(["lint", str(tree), "--ignore", "RP001",
                     "--ignore", "RP002"]) == EXIT_CLEAN


class TestBaselineCycle:
    def test_write_then_rerun_is_clean(self, tmp_path, capsys):
        tree = make_tree(tmp_path, DIRTY)
        baseline = tmp_path / "baseline.json"

        assert main(["lint", str(tree), "--baseline", str(baseline),
                     "--write-baseline"]) == EXIT_CLEAN
        assert "wrote 1 finding(s)" in capsys.readouterr().out
        entries = json.loads(baseline.read_text())["findings"]
        assert entries and entries[0]["rule"] == "RP001"

        assert main(["lint", str(tree), "--baseline", str(baseline)]) == EXIT_CLEAN
        assert "1 baselined" in capsys.readouterr().out

    def test_new_violation_still_fails_with_baseline(self, tmp_path, capsys):
        tree = make_tree(tmp_path, DIRTY)
        baseline = tmp_path / "baseline.json"
        main(["lint", str(tree), "--baseline", str(baseline), "--write-baseline"])
        capsys.readouterr()

        (tree / "core" / "x.py").write_text("EPS = 1e-9\nNEW = 1e-7\n")
        assert main(["lint", str(tree), "--baseline", str(baseline)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "1e-07" in out and "1 baselined" in out

    def test_default_baseline_autoloaded_from_cwd(self, tmp_path, capsys, monkeypatch):
        tree = make_tree(tmp_path, DIRTY)
        monkeypatch.chdir(tmp_path)
        assert main(["lint", str(tree), "--write-baseline"]) == EXIT_CLEAN
        assert (tmp_path / "lint-baseline.json").exists()
        capsys.readouterr()
        assert main(["lint", str(tree)]) == EXIT_CLEAN
        assert main(["lint", str(tree), "--no-baseline"]) == EXIT_FINDINGS

    def test_corrupt_baseline_exits_two(self, tmp_path, capsys):
        tree = make_tree(tmp_path, CLEAN)
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{\"version\": 99}")
        assert main(["lint", str(tree), "--baseline", str(baseline)]) == EXIT_ERROR
        assert "cannot read baseline" in capsys.readouterr().out


class TestRepoTreeIntegration:
    def test_repo_src_is_lint_clean(self, capsys):
        """`repro lint src/` on this repository exits 0 (the acceptance gate)."""
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        assert main(["lint", str(src), "--no-baseline"]) == EXIT_CLEAN
