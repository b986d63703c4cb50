"""The domain rule catalog (RP000–RP008).

Each rule encodes an invariant the dynamic verification layer
(:mod:`repro.verify`) can only catch after the fact, enforced here *at
rest* on every commit:

* **RP000** — suppression-directive hygiene (unknown codes, missing
  justification; the runner additionally reports directives that
  suppress nothing). RP000 findings cannot themselves be suppressed.
* **RP001** — raw float tolerance literals outside
  ``models/tolerances.py``. Scattered ``1e-9``-style epsilons are how
  solver and verifier drift apart; every comparison slack must be a
  named constant with a rationale.
* **RP002** — unseeded module-level randomness (``random.*``,
  ``np.random.*``) in the deterministic kernel (``core/``,
  ``schedulers/``, ``simulator/``, ``structures/``). Constructing a
  seeded ``random.Random`` / ``np.random.default_rng`` is fine.
* **RP003** — wall-clock access (``time.time``, ``datetime.now``,
  ``perf_counter`` …) in simulator/core hot paths. Simulated time comes
  from the event queue; host time makes runs irreproducible.
* **RP004** — float ``==`` / ``!=`` against a float literal in
  ``core/``. Cost comparisons must go through ``math.isclose`` or the
  shared tolerances (exact sentinel comparisons carry a justified
  suppression).
* **RP005** — ``print()`` outside ``cli.py`` / ``analysis/reporting.py``.
  Library code returns data; only the CLI and the reporting layer talk
  to stdout.
* **RP006** — scheduler contract: every public plan function
  (``*_plan`` / ``*_schedule``) and policy class (``*Scheduler`` /
  ``*Schedule``) defined in ``schedulers/*.py`` must be re-exported in
  ``schedulers/__init__.py`` ``__all__``, so the package surface (and
  the differential fuzzer's scheduler sweep) cannot silently miss one.
* **RP007** — ``multiprocessing`` / ``concurrent.futures`` imports
  anywhere. Every driver (bench, fuzz, sweep) is a plain loop whose
  output is a pure function of its arguments; a process pool measured
  no gain on the full Figure 3 grid and would reopen the merge-order
  and fallback questions.
* **RP008** — bare ``assert`` statements outside ``lint/``.
  ``python -O`` strips them, so a runtime check written as an
  ``assert`` silently stops checking; raise a named exception instead.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.findings import Finding
from repro.lint.source import Project, SourceModule

#: Largest magnitude a float literal may have and still read as a
#: comparison tolerance rather than a model quantity.
TOLERANCE_LITERAL_MAX = 1e-5  # repro-lint: disable=RP001 -- rule threshold itself, not a comparison tolerance

#: The one module allowed to define tolerance literals.
TOLERANCE_HOME = "models/tolerances.py"

#: Packages forming the deterministic kernel (seeded-randomness scope).
DETERMINISTIC_SCOPE = ("core/", "schedulers/", "simulator/", "structures/")

#: Packages forming the simulated-time kernel (wall-clock scope).
SIMTIME_SCOPE = DETERMINISTIC_SCOPE + ("governors/",)

#: Modules allowed to call ``print``.
PRINT_ALLOWED = ("cli.py", "analysis/reporting.py")

#: The package exempt from RP008: the linter's own ``mod.tree`` narrowings.
ASSERT_EXEMPT = "lint/"

#: Top-level modules whose import marks process fan-out.
POOL_MODULES = frozenset({"multiprocessing", "concurrent"})

#: Module-level ``random`` attributes that are *not* global-state RNG use.
RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})

#: ``np.random`` attributes that construct seeded generators.
NP_RANDOM_ALLOWED = frozenset({"default_rng", "Generator", "SeedSequence", "RandomState"})

#: Call targets that read the host clock.
WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.localtime", "time.gmtime",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "date.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a plain name, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _in_scope(mod: SourceModule, prefixes: tuple[str, ...]) -> bool:
    return mod.pkgpath.startswith(prefixes)


class Rule:
    """Base class for lint rules.

    A rule has a ``code`` (``RPxxx``), a ``name``, a one-line
    ``summary`` and a ``check_project`` generator. Most rules look at
    one module at a time and override :meth:`check_module`; whole-project
    rules (the scheduler re-export contract) override
    :meth:`check_project` directly.
    """

    code: str = ""
    name: str = ""
    summary: str = ""

    def check_project(self, project: Project) -> Iterator[Finding]:
        for mod in project:
            if mod.tree is None:
                continue
            yield from self.check_module(mod)

    def check_module(self, mod: SourceModule) -> Iterator[Finding]:
        return iter(())

    def finding(
        self, mod: SourceModule, node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=mod.pkgpath,
            line=line,
            col=col + 1,
            rule=self.code,
            message=message,
            line_text=mod.line_text(line),
        )


class DirectiveHygieneRule(Rule):
    code = "RP000"
    name = "directive-hygiene"
    summary = ("suppression directives must list known RPxxx codes and carry a "
               "`-- justification`; directives that suppress nothing are reported")

    def check_module(self, mod: SourceModule) -> Iterator[Finding]:
        known = {r.code for r in RULES}
        for d in mod.directives.values():
            loc = ast.Constant(value=None, lineno=d.line, col_offset=0)
            if not d.codes:
                yield self.finding(mod, loc, "suppression directive lists no rule codes")
                continue
            for c in d.malformed_codes:
                yield self.finding(mod, loc, f"malformed rule code {c!r} (expected RPxxx)")
            for c in d.codes:
                if c == self.code:
                    yield self.finding(mod, loc, "RP000 findings cannot be suppressed")
                elif c not in known and c not in d.malformed_codes:
                    yield self.finding(mod, loc, f"unknown rule code {c!r}")
            if not d.justification:
                yield self.finding(
                    mod, loc,
                    "suppression lacks a justification (append `-- why this is safe`)",
                )


class ToleranceLiteralRule(Rule):
    code = "RP001"
    name = "raw-tolerance-literal"
    summary = (f"float literals with 0 < |x| <= {TOLERANCE_LITERAL_MAX:g} belong in "
               f"{TOLERANCE_HOME} as named constants")

    def check_module(self, mod: SourceModule) -> Iterator[Finding]:
        if mod.pkgpath == TOLERANCE_HOME:
            return
        assert mod.tree is not None
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Constant):
                continue
            v = node.value
            if isinstance(v, float) and 0.0 < abs(v) <= TOLERANCE_LITERAL_MAX:
                yield self.finding(
                    mod, node,
                    f"raw tolerance literal {v!r}; use a named constant from "
                    f"repro.models.tolerances",
                )


class UnseededRandomRule(Rule):
    code = "RP002"
    name = "unseeded-randomness"
    summary = ("module-level random/np.random calls in core/, schedulers/, "
               "simulator/, structures/ break determinism; construct a seeded "
               "random.Random or np.random.default_rng")

    def check_module(self, mod: SourceModule) -> Iterator[Finding]:
        if not _in_scope(mod, DETERMINISTIC_SCOPE):
            return
        assert mod.tree is not None
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        mod, node,
                        "from-import of random module functions; import random "
                        "and construct a seeded random.Random instead",
                    )
                elif node.module == "numpy.random":
                    bad = [a.name for a in node.names if a.name not in NP_RANDOM_ALLOWED]
                    if bad:
                        yield self.finding(
                            mod, node,
                            f"from-import of numpy.random state functions "
                            f"({', '.join(bad)}); use np.random.default_rng(seed)",
                        )
                continue
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if parts[0] == "random" and len(parts) >= 2:
                if parts[-1] not in RANDOM_ALLOWED:
                    yield self.finding(
                        mod, node,
                        f"unseeded global RNG call {name}(); use a seeded "
                        f"random.Random instance",
                    )
            elif (
                len(parts) >= 3
                and parts[0] in ("np", "numpy")
                and parts[-2] == "random"
                and parts[-1] not in NP_RANDOM_ALLOWED
            ):
                yield self.finding(
                    mod, node,
                    f"unseeded global RNG call {name}(); use "
                    f"np.random.default_rng(seed)",
                )


class WallClockRule(Rule):
    code = "RP003"
    name = "wall-clock-access"
    summary = ("host-clock reads (time.time, datetime.now, perf_counter …) in the "
               "simulator/core kernel; simulated time comes from the event queue")

    def check_module(self, mod: SourceModule) -> Iterator[Finding]:
        if not _in_scope(mod, SIMTIME_SCOPE):
            return
        assert mod.tree is not None
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in WALLCLOCK_CALLS:
                yield self.finding(
                    mod, node,
                    f"wall-clock access {name}() inside the deterministic kernel; "
                    f"take time from the simulation clock or a parameter",
                )


class FloatEqualityRule(Rule):
    code = "RP004"
    name = "float-literal-equality"
    summary = ("== / != against a float literal in core/ bypasses math.isclose "
               "and the shared tolerances")

    def check_module(self, mod: SourceModule) -> Iterator[Finding]:
        if not mod.pkgpath.startswith("core/"):
            return
        assert mod.tree is not None
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (lhs, rhs):
                    if isinstance(side, ast.Constant) and isinstance(side.value, float):
                        yield self.finding(
                            mod, node,
                            f"float {'==' if isinstance(op, ast.Eq) else '!='} "
                            f"against literal {side.value!r}; use math.isclose / "
                            f"repro.models.tolerances (or justify an exact "
                            f"sentinel with a suppression)",
                        )
                        break


class PrintRule(Rule):
    code = "RP005"
    name = "print-outside-reporting"
    summary = (f"print() belongs only in {' and '.join(PRINT_ALLOWED)}; library "
               f"code returns data")

    def check_module(self, mod: SourceModule) -> Iterator[Finding]:
        if mod.pkgpath in PRINT_ALLOWED:
            return
        assert mod.tree is not None
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    mod, node,
                    "print() outside the CLI/reporting layer; return data or "
                    "accept a log callback",
                )


class SchedulerContractRule(Rule):
    code = "RP006"
    name = "scheduler-contract"
    summary = ("every public *_plan/*_schedule function and *Scheduler/*Schedule "
               "class in schedulers/*.py must be re-exported in "
               "schedulers/__init__.py __all__")

    FUNC_SUFFIXES = ("_plan", "_schedule")
    CLASS_SUFFIXES = ("Scheduler", "Schedule")

    def check_project(self, project: Project) -> Iterator[Finding]:
        init = project.get("schedulers/__init__.py")
        if init is None or init.tree is None:
            return  # not linting the schedulers package as a whole
        exported = self._exported_all(init.tree)
        if exported is None:
            yield self.finding(
                init, init.tree, "schedulers/__init__.py defines no __all__ list"
            )
            return
        for mod in project:
            if (
                not mod.pkgpath.startswith("schedulers/")
                or mod.pkgpath == "schedulers/__init__.py"
                or mod.tree is None
            ):
                continue
            for node in mod.tree.body:
                name: str | None = None
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node.name.endswith(self.FUNC_SUFFIXES):
                        name = node.name
                elif isinstance(node, ast.ClassDef):
                    if node.name.endswith(self.CLASS_SUFFIXES):
                        name = node.name
                if name is None or name.startswith("_"):
                    continue
                if name not in exported:
                    yield self.finding(
                        mod, node,
                        f"{name} is part of the scheduler contract but is not "
                        f"re-exported in schedulers/__init__.py __all__",
                    )

    @staticmethod
    def _exported_all(tree: ast.Module) -> set[str] | None:
        for node in tree.body:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id == "__all__":
                    value = node.value
                    if isinstance(value, (ast.List, ast.Tuple)):
                        return {
                            e.value
                            for e in value.elts
                            if isinstance(e, ast.Constant) and isinstance(e.value, str)
                        }
        return None


class PoolBoundaryRule(Rule):
    code = "RP007"
    name = "pool-boundary"
    summary = ("no multiprocessing / concurrent.futures imports: drivers are "
               "plain loops, so their output needs no merge order")

    def check_module(self, mod: SourceModule) -> Iterator[Finding]:
        assert mod.tree is not None
        for node in ast.walk(mod.tree):
            names: list[str] = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                names = [node.module]
            for name in names:
                if name.split(".")[0] in POOL_MODULES:
                    yield self.finding(
                        mod, node,
                        f"import of {name}; the drivers are plain loops, "
                        f"so no process pool decides their output order",
                    )
                    break


class BareAssertRule(Rule):
    code = "RP008"
    name = "bare-assert"
    summary = ("no bare assert outside lint/: python -O strips it, so runtime "
               "checks raise named exceptions")

    def check_module(self, mod: SourceModule) -> Iterator[Finding]:
        if _in_scope(mod, (ASSERT_EXEMPT,)):
            return
        assert mod.tree is not None
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Assert):
                yield self.finding(
                    mod, node,
                    "bare assert is stripped by python -O; raise a named "
                    "exception (ValueError, RuntimeError, ...) instead",
                )


#: The rule set, in code order. It is fixed: a new rule is added here,
#: with the tree fixed or its findings suppressed with a justification.
RULES: tuple[Rule, ...] = (
    DirectiveHygieneRule(),
    ToleranceLiteralRule(),
    UnseededRandomRule(),
    WallClockRule(),
    FloatEqualityRule(),
    PrintRule(),
    SchedulerContractRule(),
    PoolBoundaryRule(),
    BareAssertRule(),
)


def resolve_codes(
    select: Iterable[str] | None = None, ignore: Iterable[str] | None = None
) -> list[Rule]:
    """The active rule set after ``--select`` / ``--ignore`` filtering.

    Raises :class:`KeyError` on a code that names no rule, so a typo
    fails loudly instead of silently linting nothing.
    """
    known = {r.code for r in RULES}
    for group in (select, ignore):
        for code in group or ():
            if code not in known:
                raise KeyError(f"unknown rule code {code!r}")
    active = set(select) if select else set(known)
    active -= set(ignore or ())
    return [r for r in RULES if r.code in active]


__all__ = [
    "BareAssertRule",
    "DirectiveHygieneRule",
    "FloatEqualityRule",
    "PoolBoundaryRule",
    "PrintRule",
    "RULES",
    "Rule",
    "SchedulerContractRule",
    "ToleranceLiteralRule",
    "UnseededRandomRule",
    "WallClockRule",
    "dotted_name",
    "resolve_codes",
]
