"""Field-wise arithmetic on the library's accounting dataclasses.

:class:`~repro.backends.cache.CacheStats`,
:class:`~repro.conv.approx_conv2d.ApproxConvStats`,
:class:`~repro.gpusim.engine.GPUConvRunReport` and
:class:`~repro.backends.pipeline.RunReport` all count work in plain ``int``
and ``float`` fields.  Their merges, per-run deltas and per-request slices
go through the three helpers here, so a counter added to one of them is
merged, subtracted and sliced without further edits.

A *counter* is a field annotated ``int`` or ``float``, unless its metadata
is :data:`SETTING`.  Every other field (names, nested reports, per-chunk
logs) is left to the owning class.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import fields
from typing import TypeVar

T = TypeVar("T")

#: Field metadata of an ``int``/``float`` field that describes a run's
#: configuration rather than counting its work (a chunk size, a worker
#: count): never added, subtracted or scaled.
SETTING = {"counter": False}


_NUMERIC = {"int": int, "float": float, int: int, float: float}


@functools.cache
def _counters(cls) -> tuple[tuple[str, type], ...]:
    """``(name, int or float)`` of every counter field of ``cls``."""
    return tuple((f.name, _NUMERIC[f.type]) for f in fields(cls)
                 if f.type in _NUMERIC and f.metadata.get("counter", True))


def add(target, other) -> None:
    """Add every counter of ``other`` into ``target`` in place."""
    for name, _ in _counters(type(target)):
        setattr(target, name, getattr(target, name) + getattr(other, name))


def difference(after: T, before) -> T:
    """Shallow copy of ``after`` whose counters are ``after - before``."""
    result = copy.copy(after)
    for name, _ in _counters(type(after)):
        setattr(result, name, getattr(after, name) - getattr(before, name))
    return result


def scaled(obj: T, fraction: float) -> T:
    """Shallow copy of ``obj`` whose counters are multiplied by ``fraction``.

    ``int`` counters round to the nearest integer; ``float`` ones do not.
    """
    result = copy.copy(obj)
    for name, kind in _counters(type(obj)):
        value = getattr(obj, name) * fraction
        setattr(result, name, int(round(value)) if kind is int else value)
    return result
