"""Seeded experiment grids behind ``repro sweep`` — parallel by design.

The repo's three hand-rolled sweep benchmarks (the Figure 3
seed-replication in ``benchmarks/bench_fig3_replication.py``, the
pricing-ratio ablation in ``bench_ablation_cost_weights.py``, and the
core-count sweep in ``bench_sweep_cores.py``) all share one shape: a
fixed list of independent, fully seeded cells, each running a handful
of schedulers and reporting cost margins. This module pins those grids
as :class:`SweepSpec` entries in :data:`SWEEPS` and runs them through
:func:`repro.parallel.run_sharded`, so ``repro sweep fig3_replication
--jobs 4`` fills four cores and still produces **exactly** the rows a
serial run produces, in cell order.

Every cell function is a module-level pure function of its cell config
(seeds included in the config, never drawn from the environment), which
is what makes the sharded grid mergeable bit-identically. A sweep run
can be recorded into ``BENCH_schedulers.json`` under the ``sweep``
profile — the row checksum then gates like any bench checksum: if a
code change moves any margin, the gate names it.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.perf.reference import reference_block, scale
from repro.perf.report import BenchReport, ScenarioResult

#: The paper's pricing constants (batch: Fig. 2, online: Fig. 3).
RE_BATCH, RT_BATCH = 0.1, 0.4
RE_ONLINE, RT_ONLINE = 0.4, 0.1

#: Trace seeds for the Figure 3 replication grid (one cell per seed).
FIG3_SEEDS = (11, 23, 37, 41, 59)

#: (Re, Rt) pricing ratios for the cost-weight ablation grid.
COST_WEIGHT_RATIOS = ((0.4, 0.04), (0.1, 0.1), (0.1, 0.4), (0.02, 0.4), (0.004, 0.4))

#: Core counts for the batch and online halves of the core-count sweep.
CORE_COUNTS_BATCH = (1, 2, 4, 8, 16)
CORE_COUNTS_ONLINE = (2, 4, 8)


def fig3_replication_cell(cell: Dict[str, Any], quick: bool) -> Dict[str, Any]:
    """One Figure 3 replication cell: LMC/OLB/OD margins at one seed."""
    from repro.analysis.metrics import improvement_summary
    from repro.governors import OnDemandGovernor
    from repro.models.rates import TABLE_II
    from repro.schedulers import (
        LMCOnlineScheduler,
        OLBOnlineScheduler,
        OnDemandRoundRobinScheduler,
    )
    from repro.simulator import run_online
    from repro.workloads import JudgeTraceConfig, generate_judge_trace

    cfg = JudgeTraceConfig(
        n_interactive=600 if quick else 3000,
        n_noninteractive=40 if quick else 200,
        duration_s=120.0 if quick else 450.0,
        seed=int(cell["seed"]),
    )
    trace = generate_judge_trace(cfg)
    n_cores = 4
    costs = {
        "LMC": run_online(
            trace, LMCOnlineScheduler(TABLE_II, n_cores, RE_ONLINE, RT_ONLINE),
            TABLE_II,
        ).cost(RE_ONLINE, RT_ONLINE),
        "OLB": run_online(
            trace, OLBOnlineScheduler(TABLE_II, n_cores), TABLE_II
        ).cost(RE_ONLINE, RT_ONLINE),
        "OD": run_online(
            trace, OnDemandRoundRobinScheduler(n_cores), TABLE_II,
            governors=[OnDemandGovernor(TABLE_II) for _ in range(n_cores)],
        ).cost(RE_ONLINE, RT_ONLINE),
    }
    return {
        "seed": cfg.seed,
        "vs_olb_total_pct": improvement_summary(costs, "LMC", "OLB")["total_pct"],
        "vs_od_total_pct": improvement_summary(costs, "LMC", "OD")["total_pct"],
    }


def cost_weights_cell(cell: Dict[str, Any], quick: bool) -> Dict[str, Any]:
    """One pricing-ratio cell: WBG margins over OLB/PS at one Re:Rt."""
    from repro.analysis.metrics import improvement_summary
    from repro.models.rates import TABLE_II
    from repro.schedulers import olb_plan, power_saving_plan, wbg_plan
    from repro.simulator import run_batch
    from repro.workloads import spec_tasks

    re, rt = float(cell["re"]), float(cell["rt"])
    tasks = spec_tasks()
    costs = {
        "WBG": run_batch(wbg_plan(tasks, TABLE_II, 4, re, rt), TABLE_II).cost(re, rt),
        "OLB": run_batch(olb_plan(tasks, TABLE_II, 4), TABLE_II).cost(re, rt),
        "PS": run_batch(power_saving_plan(tasks, TABLE_II, 4), TABLE_II).cost(re, rt),
    }
    return {
        "re": re,
        "rt": rt,
        "vs_olb_total_pct": improvement_summary(costs, "WBG", "OLB")["total_pct"],
        "vs_ps_total_pct": improvement_summary(costs, "WBG", "PS")["total_pct"],
    }


def core_count_cell(cell: Dict[str, Any], quick: bool) -> Dict[str, Any]:
    """One core-count cell: batch (WBG) or online (LMC) margins at a width."""
    from repro.analysis.metrics import improvement_summary
    from repro.models.rates import TABLE_II
    from repro.schedulers import (
        LMCOnlineScheduler,
        OLBOnlineScheduler,
        olb_plan,
        power_saving_plan,
        wbg_plan,
    )
    from repro.simulator import run_batch, run_online
    from repro.workloads import JudgeTraceConfig, generate_judge_trace, spec_tasks

    n_cores = int(cell["n_cores"])
    if cell["mode"] == "batch":
        tasks = spec_tasks()
        costs = {
            "WBG": run_batch(
                wbg_plan(tasks, TABLE_II, n_cores, RE_BATCH, RT_BATCH), TABLE_II
            ).cost(RE_BATCH, RT_BATCH),
            "OLB": run_batch(olb_plan(tasks, TABLE_II, n_cores), TABLE_II).cost(
                RE_BATCH, RT_BATCH
            ),
            "PS": run_batch(
                power_saving_plan(tasks, TABLE_II, n_cores), TABLE_II
            ).cost(RE_BATCH, RT_BATCH),
        }
        return {
            "mode": "batch",
            "n_cores": n_cores,
            "vs_olb_total_pct": improvement_summary(costs, "WBG", "OLB")["total_pct"],
            "vs_ps_total_pct": improvement_summary(costs, "WBG", "PS")["total_pct"],
        }
    cfg = JudgeTraceConfig(
        n_interactive=500 if quick else 2500,
        n_noninteractive=(10 if quick else 50) * n_cores,
        duration_s=120.0 if quick else 450.0,
        seed=31,
    )
    trace = generate_judge_trace(cfg)
    costs = {
        "LMC": run_online(
            trace, LMCOnlineScheduler(TABLE_II, n_cores, RE_ONLINE, RT_ONLINE),
            TABLE_II,
        ).cost(RE_ONLINE, RT_ONLINE),
        "OLB": run_online(
            trace, OLBOnlineScheduler(TABLE_II, n_cores), TABLE_II
        ).cost(RE_ONLINE, RT_ONLINE),
    }
    return {
        "mode": "online",
        "n_cores": n_cores,
        "vs_olb_total_pct": improvement_summary(costs, "LMC", "OLB")["total_pct"],
    }


def _fig3_cells(quick: bool) -> List[Dict[str, Any]]:
    return [{"seed": s} for s in FIG3_SEEDS]


def _cost_weight_cells(quick: bool) -> List[Dict[str, Any]]:
    return [{"re": re, "rt": rt} for re, rt in COST_WEIGHT_RATIOS]


def _core_count_cells(quick: bool) -> List[Dict[str, Any]]:
    return [{"mode": "batch", "n_cores": c} for c in CORE_COUNTS_BATCH] + [
        {"mode": "online", "n_cores": c} for c in CORE_COUNTS_ONLINE
    ]


@dataclass(frozen=True)
class SweepSpec:
    """A registered sweep: the pinned grid and its per-cell experiment."""

    name: str
    description: str
    cells: Callable[[bool], List[Dict[str, Any]]]
    run_cell: Callable[[Dict[str, Any], bool], Dict[str, Any]]


SWEEPS: Dict[str, SweepSpec] = {
    s.name: s
    for s in (
        SweepSpec(
            "fig3_replication",
            "Figure 3 online margins replicated across trace seeds",
            _fig3_cells,
            fig3_replication_cell,
        ),
        SweepSpec(
            "cost_weights",
            "Figure 2 margin sensitivity to the Re:Rt pricing ratio",
            _cost_weight_cells,
            cost_weights_cell,
        ),
        SweepSpec(
            "core_count",
            "batch and online margins vs platform core count",
            _core_count_cells,
            core_count_cell,
        ),
    )
}


def _sweep_worker(payload: Tuple[str, Dict[str, Any], bool]) -> Dict[str, Any]:
    """Run one grid cell in a worker process.

    Every cell's seed is part of its pinned config, which is what keeps
    a sweep's rows identical across ``--jobs`` values (and identical to
    the old hand-rolled serial benchmarks).
    """
    name, cell, quick = payload
    return SWEEPS[name].run_cell(cell, quick)


@dataclass
class SweepRun:
    """One executed sweep: ordered rows plus the grid's wall time."""

    name: str
    quick: bool
    jobs: int
    cells: List[Dict[str, Any]]
    rows: List[Dict[str, Any]]
    elapsed_s: float
    #: seconds of one reference call, timed in a block as long as the
    #: grid right after it (:mod:`repro.perf.reference`); scales ``elapsed_s``
    reference_s: float

    @property
    def checksum(self) -> str:
        return sweep_checksum(self.rows)


def sweep_checksum(rows: Sequence[Dict[str, Any]]) -> str:
    """16-hex-char digest over the merged grid (order-sensitive)."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update(json.dumps(row, sort_keys=True).encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def run_sweep(
    name: str,
    jobs: int = 1,
    quick: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> SweepRun:
    """Execute one registered sweep grid, sharded across ``jobs`` workers.

    Raises ``KeyError`` for an unknown sweep name. Rows come back in
    cell order whatever the scheduling.
    """
    from repro.parallel import run_sharded

    spec = SWEEPS.get(name)
    if spec is None:
        available = ", ".join(sorted(SWEEPS))
        raise KeyError(f"unknown sweep {name!r} (available: {available})")
    cells = spec.cells(quick)
    if log is not None:
        log(f"sweep {name} [{'quick' if quick else 'full'}]: "
            f"{len(cells)} cells, jobs={jobs}")
    t0 = time.perf_counter()
    rows = run_sharded(
        _sweep_worker,
        [(name, cell, quick) for cell in cells],
        jobs=jobs,
        log=log,
    )
    elapsed = time.perf_counter() - t0
    return SweepRun(
        name=name,
        quick=quick,
        jobs=jobs,
        cells=cells,
        rows=rows,
        elapsed_s=elapsed,
        reference_s=reference_block(elapsed),
    )


#: Profile slot sweeps occupy in ``BENCH_schedulers.json``. Bench's
#: ``full``/``quick`` profiles never collide with it, and the gate's
#: checksum rule applies unchanged: a moved margin is a named failure.
SWEEP_PROFILE = "sweep"


def sweep_scenario_result(
    run: SweepRun, serial_elapsed_s: Optional[float] = None
) -> ScenarioResult:
    """A sweep run in the bench report schema (see docs/PERFORMANCE.md).

    Wall times record the parallel grid time and, when measured, the
    serial reference — making the speedup auditable from the committed
    file — raw and scaled by the reference calls timed around ``run``.
    The deterministic half is the grid checksum and cell count.
    """
    wall = {("parallel" if run.jobs > 1 else "serial"): run.elapsed_s}
    if serial_elapsed_s is not None:
        wall["serial"] = serial_elapsed_s
    return ScenarioResult(
        name=f"sweep_{run.name}",
        params={"sweep": run.name, "quick": run.quick, "cells": len(run.cells)},
        wall_time_s=wall,
        ops={"cells": len(run.rows)},
        checksum=run.checksum,
        scaled_time_s={k: scale(v, run.reference_s) for k, v in wall.items()},
    )


def record_sweep(
    path: Any, run: SweepRun, serial_elapsed_s: Optional[float] = None
) -> ScenarioResult:
    """Merge ``run`` into the ``sweep`` profile of a bench report file.

    Preserves the ``full``/``quick`` profiles and any other recorded
    sweeps (:func:`~repro.perf.report.save_report_file` merges); returns
    the recorded :class:`ScenarioResult`.
    """
    from pathlib import Path

    from repro.perf.report import load_report_file, save_report_file

    target = Path(path)
    existing = load_report_file(target) if target.exists() else {}
    result = sweep_scenario_result(run, serial_elapsed_s)
    report = BenchReport(profile=SWEEP_PROFILE, repeats=1, scenarios={result.name: result})
    save_report_file(target, report, existing=existing)
    return result


__all__ = [
    "CORE_COUNTS_BATCH",
    "CORE_COUNTS_ONLINE",
    "COST_WEIGHT_RATIOS",
    "FIG3_SEEDS",
    "SWEEP_PROFILE",
    "SWEEPS",
    "SweepRun",
    "SweepSpec",
    "core_count_cell",
    "cost_weights_cell",
    "fig3_replication_cell",
    "record_sweep",
    "run_sweep",
    "sweep_checksum",
    "sweep_scenario_result",
]
