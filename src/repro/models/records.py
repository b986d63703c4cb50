"""One positional constructor for the frozen records hot paths mint.

A frozen dataclass's ``__init__`` sets every field through
``object.__setattr__``, because its own ``__setattr__`` refuses. The
per-task hot paths mint records by the tens of thousands (the batch
planners' :class:`~repro.models.cost.Placement`, the batch and online
runners' task records), so they build them through :func:`slot_builder`
instead, which writes each slot descriptor directly in well under half
the time of ``cls(...)``. The result is an ordinary instance, equal to
and hashing like ``cls(*values)``, and just as frozen: only the builder
writes the slots.
"""

from __future__ import annotations

import dataclasses
import inspect
import types
from typing import Any, Callable, TypeVar

T = TypeVar("T")


def slot_builder(cls: type[T]) -> Callable[..., T]:
    """Return ``build(*values)``, equal to ``cls(*values)`` minus ``__init__``.

    ``build`` takes every field, in :func:`dataclasses.fields` order and
    with no defaults, calls ``object.__new__(cls)`` and then one slot
    descriptor ``__set__`` per field. Its body is generated once, one
    call per field, the way :mod:`dataclasses` generates ``__init__``: a
    loop over the setters costs as much as ``__init__`` itself.

    Raises ``TypeError`` unless ``cls`` is a frozen dataclass declared
    with ``slots=True`` whose ``__init__`` does nothing but assign its
    fields (no ``__post_init__``, no ``init=False`` field), since
    ``build`` would skip anything else ``__init__`` does.
    """
    klass: Any = cls
    if not (isinstance(klass, type) and dataclasses.is_dataclass(klass)):
        raise TypeError(f"slot_builder needs a dataclass, got {cls!r}")
    name = klass.__qualname__
    if not klass.__dataclass_params__.frozen:
        raise TypeError(f"slot_builder needs a frozen dataclass, {name} is not frozen")
    fields = dataclasses.fields(klass)
    if hasattr(klass, "__post_init__") or not all(f.init for f in fields):
        raise TypeError(f"{name}.__init__ does more than assign its fields")
    setters = []
    for f in fields:
        slot = inspect.getattr_static(klass, f.name, None)
        if not isinstance(slot, types.MemberDescriptorType):
            raise TypeError(
                f"slot_builder needs a dataclass with slots=True, {name}.{f.name} has no slot"
            )
        setters.append(slot.__set__)
    # Names with two leading underscores cannot be dataclass fields (the
    # class body mangles them), so they never collide with a parameter.
    params = ", ".join(f.name for f in fields)
    setter_params = ", ".join(f"__set{i}" for i in range(len(fields)))
    builder = f"build_{klass.__name__}"
    source = "\n".join([
        f"def __create(__new, __cls, {setter_params}):",
        f"    def {builder}({params}):",
        "        __record = __new(__cls)",
        *(f"        __set{i}(__record, {f.name})" for i, f in enumerate(fields)),
        "        return __record",
        f"    return {builder}",
    ])
    namespace: dict[str, Any] = {}
    exec(source, {}, namespace)
    build: Callable[..., T] = namespace["__create"](object.__new__, klass, *setters)
    return build
