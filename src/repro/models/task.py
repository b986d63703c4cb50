"""Task model (Section II-A of the paper).

A task ``j_k`` is a tuple ``(L_k, A_k, D_k)`` where

* ``L_k`` is the number of CPU cycles required to complete the task,
* ``A_k`` is the arrival time (0 for every batch-mode task),
* ``D_k`` is the deadline (``math.inf`` when the task has no time
  constraint).

Online-mode tasks additionally carry a :class:`TaskKind`: *interactive*
tasks have early, firm deadlines and preempt lower-priority work;
*non-interactive* tasks are queued and may be reordered freely.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Iterator, Sequence

_task_counter = itertools.count()


class TaskKind(Enum):
    """Task category used by the online mode (Section IV).

    ``BATCH`` marks batch-mode tasks (all arrive at time 0, run to
    completion in scheduler-chosen order).  ``INTERACTIVE`` tasks carry
    the higher priority and may preempt ``NONINTERACTIVE`` tasks; they
    are executed at the core's maximum frequency by the Least Marginal
    Cost scheduler.
    """

    BATCH = "batch"
    INTERACTIVE = "interactive"
    NONINTERACTIVE = "noninteractive"

    @property
    def priority(self) -> int:
        """Numeric priority; larger preempts smaller."""
        return {
            TaskKind.INTERACTIVE: 2,
            TaskKind.NONINTERACTIVE: 1,
            TaskKind.BATCH: 1,
        }[self]


@dataclass(frozen=True, slots=True)
class Task:
    """An immutable task ``j_k = (L_k, A_k, D_k)``.

    Parameters
    ----------
    cycles:
        ``L_k`` — CPU cycles needed to complete the task. Must be
        finite and > 0.
    arrival:
        ``A_k`` — arrival time in seconds (default 0, as assumed for
        the batch mode). Must be finite and >= 0.
    deadline:
        ``D_k`` — absolute deadline in seconds; ``math.inf`` means "no
        time constraint". If finite, must satisfy ``D_k > A_k >= 0``.
    kind:
        The online-mode category; defaults to :attr:`TaskKind.BATCH`.
    name:
        Optional human-readable label (e.g. the SPEC benchmark name).
    task_id:
        Unique integer identifier; auto-assigned if not given.
    """

    cycles: float
    arrival: float = 0.0
    deadline: float = math.inf
    kind: TaskKind = TaskKind.BATCH
    name: str = ""
    task_id: int = field(default_factory=lambda: next(_task_counter))

    def __post_init__(self) -> None:
        if not 0 < self.cycles < math.inf:
            raise ValueError(f"task cycles must be positive and finite, got {self.cycles!r}")
        if not 0 <= self.arrival < math.inf:
            raise ValueError(f"task arrival must be finite and >= 0, got {self.arrival!r}")
        if math.isnan(self.deadline):
            raise ValueError("task deadline must not be NaN")
        if self.deadline != math.inf and self.deadline <= self.arrival:
            raise ValueError(
                f"finite deadline must exceed arrival: D={self.deadline!r} A={self.arrival!r}"
            )

    @property
    def has_deadline(self) -> bool:
        """Whether the task carries a finite deadline."""
        return not math.isinf(self.deadline)

    @property
    def is_interactive(self) -> bool:
        return self.kind is TaskKind.INTERACTIVE

    def with_cycles(self, cycles: float) -> "Task":
        """Return a copy with a different cycle count (same identity fields)."""
        return replace(self, cycles=cycles)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dl = "inf" if math.isinf(self.deadline) else f"{self.deadline:g}"
        label = f" {self.name!r}" if self.name else ""
        return (
            f"Task(id={self.task_id}{label}, L={self.cycles:g}, "
            f"A={self.arrival:g}, D={dl}, {self.kind.value})"
        )


class TaskSet:
    """An ordered collection of :class:`Task` with batch-mode helpers.

    The batch-mode algorithms (Section III) assume independent,
    non-preemptive tasks that all arrived at time 0; :meth:`validate_batch`
    checks those assumptions. Iteration order is insertion order.
    """

    def __init__(self, tasks: Iterable[Task] = ()) -> None:
        self._tasks: list[Task] = list(tasks)
        seen: set[int] = set()
        for t in self._tasks:
            if t.task_id in seen:
                raise ValueError(f"duplicate task_id {t.task_id}")
            seen.add(t.task_id)

    # -- collection protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, idx: int) -> Task:
        return self._tasks[idx]

    def __contains__(self, task: object) -> bool:
        return any(t is task or t == task for t in self._tasks)

    def add(self, task: Task) -> None:
        if any(t.task_id == task.task_id for t in self._tasks):
            raise ValueError(f"duplicate task_id {task.task_id}")
        self._tasks.append(task)

    # -- views ---------------------------------------------------------------
    @property
    def cycles(self) -> list[float]:
        """The ``L_k`` values in insertion order."""
        return [t.cycles for t in self._tasks]

    def total_cycles(self) -> float:
        return sum(t.cycles for t in self._tasks)

    def sorted_by_cycles(self, descending: bool = False) -> list[Task]:
        """Tasks sorted by cycle count (ties broken by task id, stable)."""
        return sorted(self._tasks, key=lambda t: (t.cycles, t.task_id), reverse=descending)

    def interactive(self) -> "TaskSet":
        return TaskSet(t for t in self._tasks if t.kind is TaskKind.INTERACTIVE)

    def noninteractive(self) -> "TaskSet":
        return TaskSet(t for t in self._tasks if t.kind is not TaskKind.INTERACTIVE)

    # -- validation ----------------------------------------------------------
    def validate_batch(self) -> None:
        """Check the Section III batch-mode assumptions.

        Raises :class:`ValueError` if any task arrives after time 0 —
        the batch-mode scheduler requires complete knowledge of the
        workload up front.
        """
        late = [t for t in self._tasks if t.arrival != 0.0]
        if late:
            raise ValueError(
                f"batch mode requires arrival time 0 for every task; offending: {late[:3]}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskSet(n={len(self._tasks)}, total_cycles={self.total_cycles():g})"


def make_batch(cycle_counts: Sequence[float], names: Sequence[str] | None = None) -> TaskSet:
    """Convenience constructor: a batch :class:`TaskSet` from cycle counts."""
    if names is not None and len(names) != len(cycle_counts):
        raise ValueError("names and cycle_counts must have equal length")
    return TaskSet(
        Task(cycles=c, name=(names[i] if names else ""))
        for i, c in enumerate(cycle_counts)
    )
