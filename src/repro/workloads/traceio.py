"""Trace persistence: save/load task traces as CSV or JSON Lines.

Lets users capture a generated trace for exact replay elsewhere, or
feed their own production traces (the Judgegirl equivalent) into the
online harness. Both formats carry the full task tuple
``(task_id, name, cycles, arrival, deadline, kind)``; ``deadline`` is
serialised as the string ``"inf"`` when absent.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

from repro.models.task import Task, TaskKind, check_unique_ids
from repro.models.tolerances import ROUNDTRIP_REL_TOL

_FIELDS = ("task_id", "name", "cycles", "arrival", "deadline", "kind")


def _task_row(task: Task) -> dict:
    return {
        "task_id": task.task_id,
        "name": task.name,
        "cycles": task.cycles,
        "arrival": task.arrival,
        "deadline": "inf" if math.isinf(task.deadline) else task.deadline,
        "kind": task.kind.value,
    }


def _number(row: dict, field: str) -> float:
    """``row[field]`` as a float; a JSON ``true``/``false`` is not a number."""
    value = row[field]
    if isinstance(value, bool):
        raise ValueError(f"{field} must be a number, got {value!r}")
    return float(value)


def _row_task(row: dict, where: str) -> Task:
    """The task a trace row describes; a bad row raises ``ValueError``
    prefixed with ``where`` (``path:line``)."""
    try:
        deadline = row["deadline"]
        if deadline in ("inf", "", None):
            deadline = math.inf
        else:
            deadline = _number(row, "deadline")
        task_id = row["task_id"]
        if isinstance(task_id, bool) or (isinstance(task_id, float) and not task_id.is_integer()):
            raise ValueError(f"task_id must be an integer, got {task_id!r}")
        return Task(
            cycles=_number(row, "cycles"),
            arrival=_number(row, "arrival"),
            deadline=deadline,
            kind=TaskKind(row["kind"]),
            name=str(row.get("name", "") or ""),
            task_id=int(task_id),
        )
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{where}: bad trace row: {exc}") from exc


def save_trace_csv(trace: Iterable[Task], path: str | Path) -> None:
    """Write a trace as CSV with a header row."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_FIELDS)
        writer.writeheader()
        for task in trace:
            writer.writerow(_task_row(task))


def load_trace_csv(path: str | Path) -> list[Task]:
    """Read a CSV trace; tasks come back sorted by arrival."""
    path = Path(path)
    tasks = []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(_FIELDS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"trace CSV missing columns: {sorted(missing)}")
        for row in reader:
            tasks.append(_row_task(row, f"{path}:{reader.line_num}"))
    check_unique_ids(tasks)
    tasks.sort(key=lambda t: (t.arrival, t.task_id))
    return tasks


def save_trace_jsonl(trace: Iterable[Task], path: str | Path) -> None:
    """Write a trace as JSON Lines (one task object per line)."""
    path = Path(path)
    with path.open("w") as fh:
        for task in trace:
            fh.write(json.dumps(_task_row(task)) + "\n")


def load_trace_jsonl(path: str | Path) -> list[Task]:
    """Read a JSON Lines trace; tasks come back sorted by arrival."""
    path = Path(path)
    tasks = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object, got {row!r}")
            missing = set(_FIELDS) - set(row)
            if missing:
                raise ValueError(f"{path}:{lineno}: missing fields {sorted(missing)}")
            tasks.append(_row_task(row, f"{path}:{lineno}"))
    check_unique_ids(tasks)
    tasks.sort(key=lambda t: (t.arrival, t.task_id))
    return tasks


def roundtrip_equal(a: Sequence[Task], b: Sequence[Task]) -> bool:
    """Field-level equality of two traces (used by tests and sanity checks)."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (
            x.task_id != y.task_id
            or x.name != y.name
            or x.kind is not y.kind
            or not math.isclose(x.cycles, y.cycles, rel_tol=ROUNDTRIP_REL_TOL)
            or not math.isclose(x.arrival, y.arrival, rel_tol=ROUNDTRIP_REL_TOL)
        ):
            return False
        if math.isinf(x.deadline) != math.isinf(y.deadline):
            return False
        if not math.isinf(x.deadline) and not math.isclose(
            x.deadline, y.deadline, rel_tol=ROUNDTRIP_REL_TOL
        ):
            return False
    return True
