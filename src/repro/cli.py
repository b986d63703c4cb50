"""Command-line interface: run any of the paper's experiments.

Installed as ``repro-dvfs`` (also ``python -m repro``). Subcommands:

* ``table1`` / ``table2`` — print the paper's tables;
* ``ranges`` — dominating position ranges for a pricing (Algorithm 1);
* ``fig1`` — model verification (Sim vs Exp);
* ``fig2`` — batch-mode scheduler comparison (WBG / OLB / PS);
* ``fig3`` — online-mode scheduler comparison (LMC / OLB / OD);
* ``batch`` — schedule an ad-hoc batch of cycle counts with WBG;
* ``gantt`` — ASCII Gantt chart of a WBG plan for a batch;
* ``frontier`` — energy/flow-time Pareto frontier of a batch;
* ``workload`` — generate a Judgegirl-style trace file to CSV/JSONL;
* ``trace`` — run a seeded scenario with decision tracing on and print
  (or save) the structured decision log (see docs/OBSERVABILITY.md);
* ``explain`` — reconstruct why a task got its core / position / rate
  from a decision trace, citing the paper's equations;
* ``fuzz`` — seeded differential fuzzer (fast vs naive implementations;
  ``--jobs N`` shards the case sweep deterministically);
* ``lint`` — domain-aware static analysis (determinism / tolerance /
  scheduler-contract rules; see docs/STATIC_ANALYSIS.md);
* ``bench`` — deterministic perf suite with a regression gate against
  the committed ``BENCH_schedulers.json`` (see docs/PERFORMANCE.md;
  ``--jobs N`` runs scenarios in parallel worker processes);
* ``sweep`` — seeded experiment grids (Figure 3 replication, pricing
  ablation, core-count scaling) sharded across worker processes with a
  bit-identical merge (see docs/PARALLELISM.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.metrics import improvement_summary, normalize_costs
from repro.analysis.reporting import (
    format_table,
    render_cost_breakdown,
    render_cost_comparison,
    render_table_i,
    render_table_ii,
)
from repro.analysis.verification import verify_model
from repro.core.dominating import DominatingRanges
from repro.governors import OnDemandGovernor
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II
from repro.models.rates import TABLE_II_VERIFICATION
from repro.models.task import Task
from repro.schedulers import (
    LMCOnlineScheduler,
    OLBOnlineScheduler,
    OnDemandRoundRobinScheduler,
    olb_plan,
    power_saving_plan,
    wbg_plan,
)
from repro.simulator import run_batch, run_online
from repro.workloads import generate_judge_trace, JudgeTraceConfig, spec_tasks
from repro.workloads.spec import SPEC_TABLE_I
from repro.workloads.trace import trace_summary


def _add_pricing(parser: argparse.ArgumentParser, re_default: float, rt_default: float) -> None:
    parser.add_argument("--re", type=float, default=re_default,
                        help=f"cents per joule (default {re_default})")
    parser.add_argument("--rt", type=float, default=rt_default,
                        help=f"cents per second of waiting (default {rt_default})")
    parser.add_argument("--cores", type=int, default=4, help="number of cores (default 4)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the result as structured JSON")


def _maybe_export(args: argparse.Namespace, payload: dict) -> None:
    if getattr(args, "json", None):
        from repro.analysis.export import write_json

        write_json(payload, args.json)
        print(f"wrote JSON result to {args.json}")


def cmd_table1(_args: argparse.Namespace) -> int:
    print(render_table_i(SPEC_TABLE_I))
    return 0


def cmd_table2(_args: argparse.Namespace) -> int:
    print(render_table_ii(TABLE_II))
    return 0


def cmd_ranges(args: argparse.Namespace) -> int:
    model = CostModel(TABLE_II, args.re, args.rt)
    ranges = DominatingRanges.from_cost_model(model)
    rows = [
        (f"{r.rate:g} GHz", r.lo, "inf" if r.hi is None else r.hi - 1)
        for r in ranges
    ]
    print(format_table(["Rate", "First position", "Last position"], rows,
                       title=f"Dominating position ranges (backward), Re={args.re} Rt={args.rt}"))
    return 0


def cmd_fig1(args: argparse.Namespace) -> int:
    tasks = spec_tasks()
    model = CostModel(TABLE_II_VERIFICATION, args.re, args.rt)
    plan = wbg_plan(tasks, TABLE_II_VERIFICATION, args.cores, args.re, args.rt)
    report = verify_model(plan, model)
    rows = [
        ("Sim", report.sim.temporal_cost, report.sim.energy_cost, report.sim.total_cost),
        ("Exp", report.exp.temporal_cost, report.exp.energy_cost, report.exp.total_cost),
        ("gap %", 100 * report.time_gap, 100 * report.energy_gap, 100 * report.total_gap),
    ]
    print(format_table(["", "Time cost", "Energy cost", "Total cost"], rows,
                       title="FIG. 1 — SIMULATION vs EXPERIMENT (paper gap: ~+8%)"))
    from repro.analysis.export import verification_dict

    _maybe_export(args, verification_dict(report))
    return 0


def cmd_fig2(args: argparse.Namespace) -> int:
    tasks = spec_tasks()
    plans = {
        "WBG": wbg_plan(tasks, TABLE_II, args.cores, args.re, args.rt),
        "OLB": olb_plan(tasks, TABLE_II, args.cores),
        "PS": power_saving_plan(tasks, TABLE_II, args.cores),
    }
    costs = {name: run_batch(plan, TABLE_II).cost(args.re, args.rt)
             for name, plan in plans.items()}
    print(render_cost_comparison(normalize_costs(costs, "WBG"), "WBG",
                                 "FIG. 2 — BATCH MODE COST COMPARISON"))
    print()
    print(render_cost_breakdown(costs, "Raw components"))
    for base in ("OLB", "PS"):
        d = improvement_summary(costs, "WBG", base)
        print(f"WBG vs {base}: energy {d['energy_pct']:+.1f}%, time {d['time_pct']:+.1f}%, "
              f"total {d['total_pct']:+.1f}%  (paper: OLB −46% energy/+4% time; PS −27%/−13%)")
    from repro.analysis.export import comparison_dict

    _maybe_export(args, comparison_dict(costs, "WBG", title="Figure 2 — batch mode"))
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    cfg = JudgeTraceConfig(seed=args.seed)
    trace = generate_judge_trace(cfg)
    s = trace_summary(trace)
    print(f"trace: {s.n_interactive} interactive + {s.n_noninteractive} non-interactive tasks, "
          f"offered load {100 * s.utilisation_at(TABLE_II.max_rate, args.cores):.0f}% "
          f"of {args.cores} cores at {TABLE_II.max_rate:g} GHz")
    results = {
        "LMC": run_online(trace, LMCOnlineScheduler(TABLE_II, args.cores, args.re, args.rt),
                          TABLE_II),
        "OLB": run_online(trace, OLBOnlineScheduler(TABLE_II, args.cores), TABLE_II),
        "OD": run_online(trace, OnDemandRoundRobinScheduler(args.cores), TABLE_II,
                         governors=[OnDemandGovernor(TABLE_II) for _ in range(args.cores)]),
    }
    costs = {k: r.cost(args.re, args.rt) for k, r in results.items()}
    print(render_cost_comparison(normalize_costs(costs, "LMC"), "LMC",
                                 "FIG. 3 — ONLINE MODE COST COMPARISON"))
    for base in ("OLB", "OD"):
        d = improvement_summary(costs, "LMC", base)
        print(f"LMC vs {base}: energy {d['energy_pct']:+.1f}%, time {d['time_pct']:+.1f}%, "
              f"total {d['total_pct']:+.1f}%  (paper: OLB −11%/−31%/−17%; OD −11%/−46%/−24%)")
    from repro.analysis.export import comparison_dict

    _maybe_export(args, comparison_dict(costs, "LMC", title="Figure 3 — online mode"))
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    tasks = [Task(cycles=c, name=f"job{i}") for i, c in enumerate(args.cycles)]
    plan = wbg_plan(tasks, TABLE_II, args.cores, args.re, args.rt)
    rows = []
    for sched in plan:
        for k, pl in enumerate(sched.placements, start=1):
            rows.append((sched.core_index, k, pl.task.name, pl.task.cycles, f"{pl.rate:g} GHz"))
    rows.sort()
    print(format_table(["Core", "Slot", "Task", "Gcycles", "Rate"], rows,
                       title="Workload Based Greedy plan"))
    cost = run_batch(plan, TABLE_II).cost(args.re, args.rt)
    print(f"total cost {cost.total_cost:.4g} "
          f"(energy {cost.energy_cost:.4g} + time {cost.temporal_cost:.4g})")
    return 0


def cmd_gantt(args: argparse.Namespace) -> int:
    from repro.analysis.gantt import render_plan_gantt

    tasks = [Task(cycles=c, name=f"job{i}") for i, c in enumerate(args.cycles)]
    plan = wbg_plan(tasks, TABLE_II, args.cores, args.re, args.rt)
    print(render_plan_gantt(plan, TABLE_II, width=args.width))
    return 0


def cmd_frontier(args: argparse.Namespace) -> int:
    from repro.core.budget import pareto_frontier

    tasks = [Task(cycles=c, name=f"job{i}") for i, c in enumerate(args.cycles)]
    points = pareto_frontier(tasks, TABLE_II, points=args.points)
    print(format_table(
        ["Energy (J)", "Total flow time (s)"],
        [(e, f) for e, f in points],
        title="Energy / flow-time Pareto frontier (single core, Table II rates)",
    ))
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    from repro.workloads.traceio import save_trace_csv, save_trace_jsonl

    cfg = JudgeTraceConfig(
        n_interactive=args.interactive,
        n_noninteractive=args.noninteractive,
        duration_s=args.duration,
        seed=args.seed,
    )
    trace = generate_judge_trace(cfg)
    if args.out.endswith(".jsonl"):
        save_trace_jsonl(trace, args.out)
    elif args.out.endswith(".csv"):
        save_trace_csv(trace, args.out)
    else:
        print("error: output file must end in .csv or .jsonl", flush=True)
        return 2
    s = trace_summary(trace)
    print(f"wrote {s.total_tasks} tasks ({s.n_interactive} interactive + "
          f"{s.n_noninteractive} non-interactive) to {args.out}")
    return 0


def _format_event(event, width: int = 110) -> str:
    import json

    data = json.dumps(dict(event.data), separators=(",", ":"))
    if len(data) > width:
        data = data[: width - 1] + "…"
    stamp = "" if event.time is None else f" t={event.time:.6g}"
    return f"{event.seq:>5}  {event.kind:<18}{stamp}  {data}"


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import RecordingTracer, run_traced_scenario

    tracer = RecordingTracer()
    summary = run_traced_scenario(
        args.scenario, tracer,
        re=args.re, rt=args.rt, n_cores=args.cores, seed=args.seed,
    )
    events = tracer.events
    parts = [f"{k}={summary[k]}" for k in ("n_tasks", "n_ops", "n_cores", "total_cost")
             if k in summary]
    print(f"scenario {args.scenario}: {', '.join(parts)}")
    counts = ", ".join(f"{k}×{v}" for k, v in sorted(tracer.counts.items()))
    print(f"{len(events)} trace events: {counts}")
    if args.out:
        n = tracer.write_jsonl(args.out)
        print(f"wrote {n} events to {args.out}")
        return 0
    shown = events if args.limit is None else events[: args.limit]
    for e in shown:
        print(_format_event(e))
    if len(shown) < len(events):
        print(f"… {len(events) - len(shown)} more (use --limit or --out PATH.jsonl)")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs import (
        ExplainError,
        RecordingTracer,
        explain_task,
        read_trace,
        run_traced_scenario,
    )

    key = int(args.task) if args.task.lstrip("-").isdigit() else args.task
    if args.trace:
        try:
            events = read_trace(args.trace)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read trace {args.trace}: {exc}")
            return 2
    else:
        tracer = RecordingTracer()
        run_traced_scenario(
            args.scenario, tracer,
            re=args.re, rt=args.rt, n_cores=args.cores, seed=args.seed,
        )
        events = tracer.events
    try:
        explanation = explain_task(events, key)
    except ExplainError as exc:
        print(f"error: {exc}")
        return 1
    print(explanation.render())
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.verify import ALL_CHECKS, run_fuzz, summarize

    checks = args.check or None
    unknown = sorted(set(checks or ()) - set(ALL_CHECKS))
    if unknown:
        names = ", ".join(sorted(ALL_CHECKS))
        print(f"unknown check(s): {', '.join(unknown)} (available: {names})")
        return 2
    try:
        report = run_fuzz(
            seed=args.seed,
            cases=args.cases,
            checks=checks,
            budget=args.budget,
            max_failures=args.max_failures,
            jobs=args.jobs,
            log=print,
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    summarize(report, print)
    if not report.ok:
        names = ", ".join(sorted(ALL_CHECKS))
        print(f"(checks available: {names})")
        return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.perf import (
        ALL_SCENARIOS,
        EXIT_CLEAN,
        EXIT_ERROR,
        compare_reports,
        load_report_file,
        render_comparison,
        render_report,
        run_bench,
        save_report_file,
    )

    if args.list_scenarios:
        for name in sorted(ALL_SCENARIOS):
            print(f"{name}  {ALL_SCENARIOS[name].description}")
        return EXIT_CLEAN

    try:
        report = run_bench(
            scenarios=args.scenario,
            quick=args.quick,
            repeats=args.repeats,
            jobs=args.jobs,
            log=print,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}")
        return EXIT_ERROR
    except ValueError as exc:
        print(f"error: {exc}")
        return EXIT_ERROR
    render_report(report, print)

    out_path = Path(args.out)
    baseline_path = Path(args.baseline) if args.baseline else out_path
    existing = {}
    if baseline_path.exists():
        try:
            existing = load_report_file(baseline_path)
        except (ValueError, OSError) as exc:
            print(f"error: cannot read baseline {baseline_path}: {exc}")
            return EXIT_ERROR

    # Gate first (against the committed numbers), then overwrite them —
    # mirroring how `repro lint` treats its baseline file.
    code = EXIT_CLEAN
    if args.no_compare:
        print("bench gate: skipped (--no-compare)")
    elif report.profile not in existing:
        print(f"bench gate: no committed {report.profile!r} profile to compare "
              f"against; writing a fresh baseline")
    else:
        comparison = compare_reports(
            report, existing[report.profile], threshold=args.threshold
        )
        render_comparison(comparison, print)
        code = comparison.exit_code

    save_report_file(out_path, report, existing=existing)
    print(f"wrote {out_path} (profile {report.profile!r})")
    return code


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.perf import EXIT_CLEAN, EXIT_ERROR
    from repro.perf.sweep import SWEEPS, record_sweep, run_sweep

    if args.list_sweeps:
        for name in sorted(SWEEPS):
            print(f"{name}  {SWEEPS[name].description}")
        return EXIT_CLEAN
    if not args.name:
        print(f"error: name a sweep to run (available: {', '.join(sorted(SWEEPS))}) "
              "or pass --list")
        return EXIT_ERROR
    if args.jobs < 1:
        print("error: --jobs must be >= 1")
        return EXIT_ERROR

    try:
        run = run_sweep(args.name, jobs=args.jobs, quick=args.quick, log=print)
    except KeyError as exc:
        print(f"error: {exc.args[0]}")
        return EXIT_ERROR

    serial_elapsed = None
    if args.compare_serial and args.jobs > 1:
        serial = run_sweep(args.name, jobs=1, quick=args.quick, log=print)
        serial_elapsed = serial.elapsed_s
        if serial.rows != run.rows:
            print("error: sharded rows diverged from the serial rows "
                  "(determinism bug — please report)")
            return EXIT_ERROR
        print(f"sweep {args.name}: serial {serial_elapsed:.3f}s vs "
              f"jobs={args.jobs} {run.elapsed_s:.3f}s "
              f"(speedup {serial_elapsed / run.elapsed_s:.2f}x, rows identical)")

    def _cell(h: str, v: object) -> str:
        if isinstance(v, float):
            return f"{v:+.2f}%" if h.endswith("_pct") else f"{v:g}"
        return str(v)

    # Rows of one sweep may carry different columns (core_count mixes batch
    # and online rows): take the first-seen union, blank where a row lacks one.
    headers = list(dict.fromkeys(h for row in run.rows for h in row))
    rows = [tuple(_cell(h, row[h]) if h in row else "" for h in headers) for row in run.rows]
    print(format_table(headers, rows,
                       title=f"sweep {args.name} ({'quick' if args.quick else 'full'})"))
    print(f"{len(run.rows)} cells in {run.elapsed_s:.3f}s  jobs={run.jobs}  "
          f"checksum={run.checksum}")
    if args.record:
        result = record_sweep(args.out, run, serial_elapsed_s=serial_elapsed)
        print(f"recorded {result.name} into {args.out} (profile 'sweep')")
    return EXIT_CLEAN


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lint import (
        Baseline,
        DEFAULT_BASELINE,
        EXIT_CLEAN,
        EXIT_ERROR,
        Project,
        all_rules,
        render_json,
        render_text,
        run_lint,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name}: {rule.summary}")
        return EXIT_CLEAN

    try:
        project = Project.from_paths(Path(p) for p in args.paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}")
        return EXIT_ERROR

    baseline_path = Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE)
    baseline = None
    if not args.no_baseline and not args.write_baseline and baseline_path.exists():
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, OSError) as exc:
            print(f"error: cannot read baseline: {exc}")
            return EXIT_ERROR

    try:
        report = run_lint(project, select=args.select, ignore=args.ignore,
                          baseline=baseline)
    except KeyError as exc:
        print(f"error: {exc.args[0]}")
        return EXIT_ERROR

    if args.write_baseline:
        Baseline.from_findings(report.findings).save(baseline_path)
        print(f"wrote {len(report.findings)} finding(s) to {baseline_path}")
        return EXIT_CLEAN

    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report, verbose=args.verbose))
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dvfs",
        description=__doc__.splitlines()[0] if __doc__ else "",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table I").set_defaults(func=cmd_table1)
    sub.add_parser("table2", help="print Table II").set_defaults(func=cmd_table2)

    p = sub.add_parser("ranges", help="dominating position ranges (Algorithm 1)")
    _add_pricing(p, 0.1, 0.4)
    p.set_defaults(func=cmd_ranges)

    p = sub.add_parser("fig1", help="model verification (Sim vs Exp)")
    _add_pricing(p, 0.1, 0.4)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("fig2", help="batch mode comparison (WBG/OLB/PS)")
    _add_pricing(p, 0.1, 0.4)
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("fig3", help="online mode comparison (LMC/OLB/OD)")
    _add_pricing(p, 0.4, 0.1)
    p.add_argument("--seed", type=int, default=2014, help="trace seed (default 2014)")
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("batch", help="schedule an ad-hoc batch with WBG")
    _add_pricing(p, 0.1, 0.4)
    p.add_argument("cycles", type=float, nargs="+", help="cycle counts (Gcycles)")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("gantt", help="ASCII Gantt chart of a WBG plan")
    _add_pricing(p, 0.1, 0.4)
    p.add_argument("--width", type=int, default=72, help="chart width in chars")
    p.add_argument("cycles", type=float, nargs="+", help="cycle counts (Gcycles)")
    p.set_defaults(func=cmd_gantt)

    p = sub.add_parser("frontier", help="energy/flow-time Pareto frontier")
    p.add_argument("--points", type=int, default=20, help="multiplier sweep size")
    p.add_argument("cycles", type=float, nargs="+", help="cycle counts (Gcycles)")
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("workload", help="generate an online-judge trace file")
    p.add_argument("--interactive", type=int, default=50_525)
    p.add_argument("--noninteractive", type=int, default=768)
    p.add_argument("--duration", type=float, default=1800.0)
    p.add_argument("--seed", type=int, default=2014)
    p.add_argument("out", help="output path (.csv or .jsonl)")
    p.set_defaults(func=cmd_workload)

    from repro.obs.run import TRACE_SCENARIOS

    def _add_scenario_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--re", type=float, default=None,
                       help="cents per joule (default: the scenario's)")
        p.add_argument("--rt", type=float, default=None,
                       help="cents per second (default: the scenario's)")
        p.add_argument("--cores", type=int, default=None,
                       help="number of cores (default: the scenario's)")
        p.add_argument("--seed", type=int, default=None,
                       help="scenario seed (default: the scenario's)")

    p = sub.add_parser("trace", help="run a scenario with decision tracing on")
    p.add_argument("scenario", choices=sorted(TRACE_SCENARIOS),
                   help="; ".join(f"{k}: {v[1]}" for k, v in sorted(TRACE_SCENARIOS.items())))
    _add_scenario_opts(p)
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the decision log as JSONL instead of printing")
    p.add_argument("--limit", type=int, default=30,
                   help="max events to print (default 30; ignored with --out)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("explain", help="why did a task get its core/position/rate?")
    p.add_argument("task", help="task id (integer) or task name")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="read a recorded JSONL decision log (from `repro trace --out`)")
    p.add_argument("--scenario", choices=sorted(TRACE_SCENARIOS), default="wbg",
                   help="scenario to run when no --trace is given (default wbg)")
    _add_scenario_opts(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("fuzz", help="seeded differential fuzzer (fast vs naive)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--cases", type=int, default=200,
                   help="cases per check (default 200)")
    p.add_argument("--budget", type=float, default=None,
                   help="wall-clock budget in seconds (default: unlimited)")
    p.add_argument("--check", action="append", default=None,
                   metavar="NAME", help="restrict to one check (repeatable)")
    p.add_argument("--max-failures", type=int, default=5,
                   help="stop after this many distinct failures (default 5)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; sharded case sweep with a "
                        "deterministic merge (default 1 = serial)")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("bench", help="deterministic perf suite + regression gate")
    p.add_argument("--quick", action="store_true",
                   help="small workloads, best-of-5 (the CI profile)")
    p.add_argument("--out", default="BENCH_schedulers.json", metavar="PATH",
                   help="report file to update (default BENCH_schedulers.json)")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="baseline to gate against (default: the --out file)")
    p.add_argument("--threshold", type=float, default=0.25,
                   help="relative wall-time regression threshold (default 0.25)")
    p.add_argument("--repeats", type=int, default=None,
                   help="best-of repeats (default: 3, or 5 with --quick)")
    p.add_argument("--scenario", action="append", default=None, metavar="NAME",
                   help="run only this scenario (repeatable)")
    p.add_argument("--no-compare", action="store_true",
                   help="record without gating against the baseline")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; one scenario per shard, "
                        "ops/checksums identical to serial (default 1)")
    p.add_argument("--list", "--list-scenarios", dest="list_scenarios",
                   action="store_true",
                   help="print the scenario catalog and exit")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="parallel seeded experiment grids")
    p.add_argument("name", nargs="?", default=None,
                   help="registered sweep (see --list)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; rows merge bit-identically to "
                        "serial (default 1)")
    p.add_argument("--quick", action="store_true",
                   help="scaled-down per-cell workloads (same grid)")
    p.add_argument("--compare-serial", action="store_true",
                   help="also time a serial run, verify identical rows, "
                        "and report the speedup")
    p.add_argument("--record", action="store_true",
                   help="record the run under the 'sweep' profile of --out")
    p.add_argument("--out", default="BENCH_schedulers.json", metavar="PATH",
                   help="bench report file for --record "
                        "(default BENCH_schedulers.json)")
    p.add_argument("--list", dest="list_sweeps", action="store_true",
                   help="print the sweep catalog and exit")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("lint", help="domain-aware static analysis (RPxxx rules)")
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files/directories to lint (default: src)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report format (default text)")
    p.add_argument("--select", action="append", default=None, metavar="CODE",
                   help="run only this rule (repeatable)")
    p.add_argument("--ignore", action="append", default=None, metavar="CODE",
                   help="skip this rule (repeatable)")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="baseline file (default: ./lint-baseline.json if present)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore any baseline file")
    p.add_argument("--write-baseline", action="store_true",
                   help="grandfather all current findings into the baseline")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("--verbose", action="store_true",
                   help="also list justified in-line suppressions")
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
