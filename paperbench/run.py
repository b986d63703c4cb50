"""Benchmark entry point; run it from the repository root:

    python3 paperbench/run.py --workload fig3_paper --seed 1 --seconds 20 --trace 0

A run generates the workload's inputs from ``--seed``, then repeats the
workload until ``--seconds`` have passed (at least ``MIN_REPS`` times)
and checks the outputs. Set-up — a fresh-interpreter import of the
program plus generating the inputs — is repeated ``SETUPS`` times,
spread between the repetitions. Every reported time is scaled to a
fixed host speed by a reference snippet timed alongside it (see
``spans.ScaledClock``). With ``--trace 1`` the repetitions
alternate untraced and traced; the traced ones record spans around
every call into a layer (see ``spans.py``), and their summary is
written to ``.paperbench/``.

Progress goes to stderr. The last line of stdout is one JSON object with
``correct``, ``attempted`` (tasks scheduled), ``failed`` (tasks not
completed) and ``metrics``: the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUPS = 5
MIN_REPS = 3
IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import repro.models.rates, repro.schedulers, repro.simulator, repro.workloads\n"
    "print(time.perf_counter() - t0)\n"
)


def log(msg: str) -> None:
    print(f"[paperbench] {msg}", file=sys.stderr, flush=True)


def time_set_up(workload: Any, seed: int, spans_mod: Any) -> tuple[float, float, float, Any]:
    """One set-up: import seconds, generation seconds, their scale factor, the inputs.

    The import is timed inside a fresh interpreter, as every command-line
    run of the program pays it. The reference snippet is timed before and
    after; its mean gives the factor that scales both times to 1 ms per
    reference call (see ``spans.ScaledClock``).
    """
    before = spans_mod.reference_seconds()
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    t0 = time.perf_counter()
    inputs = workload.make_inputs(seed)
    generated = time.perf_counter() - t0
    factor = 2e-3 / (before + spans_mod.reference_seconds())
    return float(out.stdout.split()[-1]), generated, factor, inputs


class Run:
    """The repetitions of one benchmark run and what they measured.

    Every time kept here is already scaled to 1 ms per reference call.
    """

    def __init__(self, workload: Any, seed: int, spans_mod: Any) -> None:
        self.workload, self.seed, self.spans_mod = workload, seed, spans_mod
        self.imports: list[float] = []
        self.gens: list[float] = []
        self.outcomes: list[Any] = []
        self.rep_seconds: dict[bool, list[float]] = {False: [], True: []}
        self.traced: list[tuple[Any, Any, float]] = []  # (spans, outcome, scale factor)
        self.inputs = self.set_up()

    def set_up(self) -> Any:
        imported, generated, factor, inputs = time_set_up(self.workload, self.seed, self.spans_mod)
        self.imports.append(imported * factor)
        self.gens.append(generated * factor)
        return inputs

    def rep(self, traced: bool) -> None:
        spans = self.spans_mod.Spans() if traced else self.spans_mod.NullSpans()
        clock = self.spans_mod.ScaledClock(self.workload.mark_every, spans)
        if self.outcomes:
            self.outcomes[-1].detail = None  # hold one repetition's results at a time
        gc.collect()
        clock.start()
        outcome = self.workload.rep(self.inputs, spans, clock)
        clock.mark()
        self.outcomes.append(outcome)
        self.rep_seconds[traced].append(clock.seconds())
        if traced:
            self.traced.append((spans, outcome, clock.factor()))
        log(f"rep {len(self.outcomes) - 1} {'traced' if traced else 'untraced'}: "
            f"{clock.work:.4f} s measured, {clock.seconds():.4f} s scaled "
            f"({clock.references} reference calls)")

    def repeat(self, seconds: float, trace: bool) -> None:
        """Repetitions until ``seconds`` have passed, with set-ups in between."""
        deadline = time.perf_counter() + seconds
        while (len(self.rep_seconds[False]) < (2 if trace else MIN_REPS)
               or (trace and len(self.rep_seconds[True]) < 2)
               or time.perf_counter() < deadline):
            self.rep(traced=trace and len(self.outcomes) % 2 == 1)
            if len(self.imports) < SETUPS:
                self.set_up()
        while len(self.imports) < SETUPS:
            self.set_up()

    def end_to_end(self) -> dict[str, Any]:
        return {
            "rep_scaled_s": {"value": statistics.median(self.rep_seconds[False]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(a + b for a, b in zip(self.imports, self.gens)),
                        "unit": "s"},
        }

    def per_layer(self) -> dict[str, Any]:
        percentile = self.spans_mod.percentile

        def med(fn: Any) -> float:
            return statistics.median(fn(spans, outcome) * factor
                                     for spans, outcome, factor in self.traced)

        def pooled(name: str) -> list[float]:
            return [d * factor for spans, _, factor in self.traced for d in spans.durations(name)]

        def count(fn: Any) -> float:
            return statistics.median(fn(spans, outcome) for spans, outcome, _ in self.traced)

        decide, kernel = pooled(self.workload.decide_span), pooled("kernel")
        values = {
            "import_ms": (1e3 * statistics.median(self.imports), "ms"),
            "gen_ms": (1e3 * statistics.median(self.gens), "ms"),
            "policy_self_ms": (1e3 * med(lambda s, o: s.self_seconds("policy")), "ms"),
            "kernel_ms": (1e3 * med(lambda s, o: s.self_seconds("kernel")), "ms"),
            "sim_self_ms": (1e3 * med(lambda s, o: s.self_seconds("sim")), "ms"),
            "price_ms": (1e3 * med(lambda s, o: s.self_seconds("price")), "ms"),
            "sim_us_per_event": (1e6 * med(lambda s, o: s.self_seconds("sim") / o.events), "us"),
            "decide_p50_us": (1e6 * percentile(decide, 0.5), "us"),
            "decide_p99_us": (1e6 * percentile(decide, 0.99), "us"),
            "kernel_p50_us": (1e6 * percentile(kernel, 0.5), "us"),
            "kernel_p99_us": (1e6 * percentile(kernel, 0.99), "us"),
            "policy_calls": (count(lambda s, o: s.calls("policy")), "count"),
            "kernel_calls": (count(lambda s, o: s.calls("kernel")), "count"),
            "sim_events": (count(lambda s, o: o.events), "count"),
            "queue_depth_max": (count(lambda s, o: o.depth), "count"),
            "trace_overhead_pct": (100.0 * (statistics.median(self.rep_seconds[True])
                                            / statistics.median(self.rep_seconds[False]) - 1.0),
                                   "%"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    def write_trace(self, metrics: dict[str, Any]) -> None:
        out_dir = os.path.join(ROOT, ".paperbench")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{self.workload.name}-seed{self.seed}.json")
        payload = {
            "workload": self.workload.name,
            "seed": self.seed,
            "per_layer": metrics,
            "reps": [spans.summary() for spans, _, _ in self.traced],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        log(f"span summary written to {os.path.relpath(path, ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"the program's sources are missing: no src/repro under {ROOT}")
        return 2
    sys.path.insert(0, SRC)
    import scenarios
    import spans as spans_mod

    workload = scenarios.WORKLOADS.get(args.workload)
    if workload is None:
        log(f"unknown workload {args.workload!r}; known: {', '.join(scenarios.WORKLOADS)}")
        return 2

    run = Run(workload, args.seed, spans_mod)
    run.repeat(args.seconds, bool(args.trace))
    if args.trace:
        metrics = run.per_layer()
        run.write_trace(metrics)
    else:
        metrics = run.end_to_end()

    outcomes = run.outcomes
    fails = workload.check(run.inputs, outcomes[-1])
    if len({o.digest for o in outcomes}) != 1:
        fails.append(f"repetitions disagree: {sorted({repr(o.digest) for o in outcomes})}")
    for fail in fails:
        log(f"CHECK FAILED: {fail}")
    attempted = sum(o.tasks for o in outcomes)
    failed = sum(o.tasks - o.completed for o in outcomes)
    print(json.dumps({"correct": not fails and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
