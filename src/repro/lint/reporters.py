"""Render a :class:`~repro.lint.runner.LintReport` as text or JSON.

The text form is one ``path:line:col: RPxxx message`` row per finding
(stable sort: path, line, column, rule) plus a one-line summary — the
shape editors and CI annotations already understand. The JSON form
carries the same data plus the suppressed findings for tooling.
"""

from __future__ import annotations

import json

from repro.lint.findings import Finding
from repro.lint.runner import LintReport


def render_text(report: LintReport, *, verbose: bool = False) -> str:
    rows = [f.render() for f in report.findings]
    if verbose and report.suppressed:
        rows.append("")
        rows.append("suppressed (justified in-line):")
        rows.extend(f"  {f.render()}" for f in report.suppressed)
    rows.append(_summary_line(report))
    return "\n".join(rows)


def _summary_line(report: LintReport) -> str:
    bits = [
        f"{len(report.findings)} finding(s)",
        f"{report.modules_checked} module(s)",
        f"{len(report.rules_run)} rule(s)",
    ]
    if report.suppressed:
        bits.append(f"{len(report.suppressed)} suppressed")
    return ("OK: " if report.ok else "FAIL: ") + ", ".join(bits)


def _finding_dict(f: Finding) -> dict[str, object]:
    return {
        "path": f.path,
        "line": f.line,
        "col": f.col,
        "rule": f.rule,
        "message": f.message,
        "line_text": f.line_text.strip(),
    }


def render_json(report: LintReport) -> str:
    payload = {
        "ok": report.ok,
        "exit_code": report.exit_code,
        "modules_checked": report.modules_checked,
        "rules_run": report.rules_run,
        "counts_by_rule": report.counts_by_rule(),
        "findings": [_finding_dict(f) for f in report.findings],
        "suppressed": [_finding_dict(f) for f in report.suppressed],
    }
    return json.dumps(payload, indent=2)


__all__ = ["render_json", "render_text"]
