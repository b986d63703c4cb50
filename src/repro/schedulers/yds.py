"""Yao-Demers-Shenker (YDS) offline optimal speed scaling.

The related-work baseline ("Yao et al. [4] proposed an offline optimal
algorithm ... for aperiodic real-time applications"): given jobs with
arrival times, deadlines and work, and a continuously variable speed
with convex power ``c·s^α``, YDS minimises total energy while meeting
every deadline. We use it as the reference lower bound for the
deadline-constrained experiments: no discrete-rate schedule on the same
jobs can use less energy than YDS with the same power law.

Classic critical-interval algorithm:

1. find the interval ``I = [t1, t2]`` of maximum *intensity*
   ``g(I) = (Σ work of jobs entirely inside I) / (t2 - t1)``;
2. run those jobs EDF at speed ``g(I)`` inside ``I``;
3. remove them, collapse ``I`` out of the timeline, repeat.

``O(n³)`` as implemented (n iterations × O(n²) candidate intervals) —
fine for the experiment sizes here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.models.energy import PowerLawEnergy
from repro.models.task import Task
from repro.models.tolerances import INTENSITY_IMPROVE_TOL, STRICT_ABS_TOL


@dataclass(frozen=True)
class YDSPiece:
    """One job's allocation: run at ``speed`` within the critical interval."""

    task: Task
    speed: float
    interval_start: float
    interval_end: float

    @property
    def duration(self) -> float:
        """Execution time at the assigned speed: cycles / speed."""
        return self.task.cycles / self.speed


@dataclass(frozen=True)
class YDSSchedule:
    """The full YDS solution plus its energy under a power law."""

    pieces: tuple[YDSPiece, ...]
    energy: float
    max_speed: float

    def speed_of(self, task_id: int) -> float:
        """The speed YDS assigned to the given task (KeyError if absent)."""
        for piece in self.pieces:
            if piece.task.task_id == task_id:
                return piece.speed
        raise KeyError(f"no piece for task_id {task_id}")


def yds_schedule(tasks: Sequence[Task], power: PowerLawEnergy | None = None) -> YDSSchedule:
    """Run YDS. Every task needs a finite deadline.

    Returns per-task speeds and the total energy ``Σ L·c·s^(α-1)``
    (each job runs at one constant speed in YDS).
    """
    if power is None:
        power = PowerLawEnergy()
    jobs = list(tasks)
    if not jobs:
        return YDSSchedule(pieces=(), energy=0.0, max_speed=0.0)
    for t in jobs:
        if math.isinf(t.deadline):
            raise ValueError(f"YDS requires finite deadlines; task {t.task_id} has none")

    # mutable copies of each job's window, collapsed as intervals are removed
    windows: dict[int, tuple[float, float]] = {
        t.task_id: (t.arrival, t.deadline) for t in jobs
    }
    remaining = {t.task_id: t for t in jobs}
    pieces: list[YDSPiece] = []

    while remaining:
        # 1. maximum-intensity interval over current windows
        starts = sorted({windows[i][0] for i in remaining})
        ends = sorted({windows[i][1] for i in remaining})
        best_intensity = -1.0
        best: tuple[float, float, list[int]] = (0.0, 0.0, [])
        for t1 in starts:
            for t2 in ends:
                if t2 <= t1:
                    continue
                inside = [
                    i for i in remaining
                    if windows[i][0] >= t1 - STRICT_ABS_TOL
                    and windows[i][1] <= t2 + STRICT_ABS_TOL
                ]
                if not inside:
                    continue
                work = sum(remaining[i].cycles for i in inside)
                intensity = work / (t2 - t1)
                if intensity > best_intensity + INTENSITY_IMPROVE_TOL:
                    best_intensity = intensity
                    best = (t1, t2, inside)
        t1, t2, inside = best
        if not inside:
            raise ValueError(
                f"no critical interval found: the windows of tasks {sorted(remaining)} "
                "collapsed to zero length"
            )

        for i in inside:
            pieces.append(
                YDSPiece(task=remaining[i], speed=best_intensity,
                         interval_start=t1, interval_end=t2)
            )
            del remaining[i]
            del windows[i]

        # 3. collapse [t1, t2] out of every surviving window
        width = t2 - t1
        for i, (a, d) in list(windows.items()):
            new_a = _collapse(a, t1, t2, width)
            new_d = _collapse(d, t1, t2, width)
            windows[i] = (new_a, new_d)

    energy = sum(p.task.cycles * power.energy_per_cycle(p.speed) for p in pieces)
    return YDSSchedule(
        pieces=tuple(pieces),
        energy=energy,
        max_speed=max(p.speed for p in pieces),
    )


def _collapse(t: float, t1: float, t2: float, width: float) -> float:
    """Map a time point through the removal of ``[t1, t2]``."""
    if t <= t1:
        return t
    if t >= t2:
        return t - width
    return t1
