"""Lint runner: rules × project → report.

Pipeline: parse every module, run the active rules, then apply per-line
suppressions (recording which directives actually fired so unused ones
can be reported). Every finding left fails the run. Exit-code policy
lives here too so the CLI and the test suite agree on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.findings import Finding
from repro.lint.rules import Rule, resolve_codes
from repro.lint.source import Project

#: Exit codes: clean / findings / usage-or-internal error.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

_HYGIENE = "RP000"


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    modules_checked: int = 0
    rules_run: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        return EXIT_CLEAN if self.ok else EXIT_FINDINGS

    def counts_by_rule(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return dict(sorted(out.items()))


def run_lint(
    project: Project,
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintReport:
    """Run the active rule set over ``project``.

    Raises :class:`KeyError` for unknown ``select``/``ignore`` codes —
    callers map that to :data:`EXIT_ERROR`.
    """
    rules: Sequence[Rule] = resolve_codes(select, ignore)
    active = {r.code for r in rules}
    report = LintReport(
        modules_checked=len(project.modules),
        rules_run=sorted(active),
    )

    raw: list[Finding] = []
    for mod in project:
        if mod.syntax_error is not None:
            raw.append(Finding(
                path=mod.pkgpath, line=1, col=1, rule=_HYGIENE,
                message=f"syntax error: {mod.syntax_error}",
                line_text=mod.line_text(1),
            ))
    for rule in rules:
        raw.extend(rule.check_project(project))

    # -- apply per-line suppressions (RP000 itself is not suppressible) ----------
    fired: set[tuple[str, int, str]] = set()
    kept: list[Finding] = []
    by_path = {mod.pkgpath: mod for mod in project}
    for f in raw:
        mod = by_path.get(f.path)
        codes = mod.suppressed_codes(f.line) if mod is not None else ()
        if f.rule != _HYGIENE and f.rule in codes:
            fired.add((f.path, f.line, f.rule))
            report.suppressed.append(f)
        else:
            kept.append(f)

    # -- directives that suppressed nothing are findings themselves --------------
    if _HYGIENE in active:
        for mod in project:
            for d in mod.directives.values():
                for code in d.codes:
                    if code not in active or code == _HYGIENE:
                        continue
                    if (mod.pkgpath, d.line, code) not in fired:
                        kept.append(Finding(
                            path=mod.pkgpath, line=d.line, col=1, rule=_HYGIENE,
                            message=(f"unused suppression: no {code} finding on "
                                     f"this line"),
                            line_text=mod.line_text(d.line),
                        ))

    report.findings = sorted(kept)
    report.suppressed.sort()
    return report


def lint_paths(
    paths: Sequence[str | Path],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintReport:
    """Convenience wrapper: load files and lint."""
    project = Project.from_paths(Path(p) for p in paths)
    return run_lint(project, select=select, ignore=ignore)


__all__ = [
    "EXIT_CLEAN",
    "EXIT_ERROR",
    "EXIT_FINDINGS",
    "LintReport",
    "lint_paths",
    "run_lint",
]
