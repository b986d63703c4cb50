"""``repro.lint`` — domain-aware static analysis for the reproduction.

The static complement to :mod:`repro.verify`: where the fuzzer catches
tolerance and determinism bugs by *running* schedulers, this package
forbids the bug classes at rest, on every commit, with a stdlib-``ast``
analyzer and one fixed rule set (:data:`repro.lint.rules.RULES`).

Rule catalog (see :mod:`repro.lint.rules` and docs/STATIC_ANALYSIS.md):

======  ==========================================================
RP000   suppression-directive hygiene (codes, justification, unused)
RP001   raw float tolerance literals outside ``models/tolerances.py``
RP002   unseeded ``random``/``np.random`` calls in the deterministic kernel
RP003   wall-clock access inside the simulator/core hot paths
RP004   float ``==``/``!=`` against literals in ``core/``
RP005   ``print()`` outside ``cli.py`` / ``analysis/reporting.py``
RP006   scheduler contract: public plans/policies re-exported in ``__all__``
RP007   ``multiprocessing`` / ``concurrent.futures`` imports (pool-boundary)
RP008   bare ``assert`` outside ``lint/`` (bare-assert)
======  ==========================================================

Typical use::

    from repro.lint import lint_paths

    report = lint_paths(["src"])
    assert report.ok, "\\n".join(f.render() for f in report.findings)

or from the command line: ``repro-dvfs lint src/`` (exit 0 clean,
1 findings, 2 usage error). Per-line suppression::

    if x == 0.0:  # repro-lint: disable=RP004 -- exact sentinel, never computed
"""

from repro.lint.findings import Finding
from repro.lint.reporters import render_json, render_text
from repro.lint.runner import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    LintReport,
    lint_paths,
    run_lint,
)
from repro.lint.rules import RULES, Rule, resolve_codes
from repro.lint.source import Project, SourceModule

__all__ = [
    "EXIT_CLEAN",
    "EXIT_ERROR",
    "EXIT_FINDINGS",
    "Finding",
    "LintReport",
    "Project",
    "RULES",
    "Rule",
    "SourceModule",
    "lint_paths",
    "render_json",
    "render_text",
    "resolve_codes",
    "run_lint",
]
