"""``slot_builder``: the positional constructor of the hot-path records."""

from __future__ import annotations

import dataclasses

import pytest

from repro.models.cost import Placement, make_placement
from repro.models.records import slot_builder
from repro.models.task import Task
from repro.simulator.batch_runner import TaskRecord
from repro.simulator.online_runner import OnlineTaskRecord

TASK = Task(cycles=2.5, arrival=1.0, name="job")

CASES = [
    (Placement, (TASK, 3.0)),
    (TaskRecord, (TASK, 2, 3.0, 1.5, 4.0, 7.25)),
    (OnlineTaskRecord, (TASK, 1, 1.25, 6.0, 9.5, 2, 3.5)),
]
IDS = [cls.__name__ for cls, _ in CASES]


@pytest.mark.parametrize(("cls", "values"), CASES, ids=IDS)
def test_built_record_equals_init_record(cls, values):
    built = slot_builder(cls)(*values)
    reference = cls(*values)
    assert type(built) is cls
    for f in dataclasses.fields(cls):
        assert getattr(built, f.name) == getattr(reference, f.name), f.name
    assert built == reference
    assert hash(built) == hash(reference)
    assert not hasattr(built, "__dict__")


@pytest.mark.parametrize(("cls", "values"), CASES, ids=IDS)
def test_built_record_stays_frozen_and_replaceable(cls, values):
    built = slot_builder(cls)(*values)
    first = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, first, None)
    moved = dataclasses.replace(built, task=Task(cycles=9.0))
    assert moved.task.cycles == 9.0
    assert moved != built
    assert dataclasses.replace(moved, task=TASK) == built


def test_make_placement_equals_placement():
    assert make_placement(TASK, 3.0) == Placement(task=TASK, rate=3.0)


@dataclasses.dataclass(slots=True)
class _Mutable:
    x: int


@dataclasses.dataclass(frozen=True)
class _Unslotted:
    x: int


@dataclasses.dataclass(frozen=True, slots=True)
class _Validated:
    x: int

    def __post_init__(self) -> None:
        if self.x < 0:
            raise ValueError("x must be non-negative")


class _Plain:
    __slots__ = ("x",)


@pytest.mark.parametrize("cls", [_Mutable, _Unslotted, _Validated, _Plain],
                         ids=["not-frozen", "unslotted", "post-init", "not-a-dataclass"])
def test_rejects_what_it_cannot_build(cls):
    with pytest.raises(TypeError):
        slot_builder(cls)
