"""Runtime values and the heap.

MiniC scalars map onto Python ``int``/``float``/``bool``; structs and
arrays are heap objects with stable per-run object ids.  Ids are only
meaningful *within* one execution — cross-run comparison of heap state goes
through the canonical snapshots in :mod:`repro.core.liveout`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.lowering import default_value
from repro.lang.types import StructDef, Type


class MiniCRuntimeError(Exception):
    """Raised for runtime faults (null deref, bounds, step limit, ...)."""


class EntryError(MiniCRuntimeError):
    """The entry function is missing or got the wrong number of
    arguments: the workload is malformed before the program runs."""


class StructObj:
    """A heap-allocated struct instance."""

    __slots__ = ("oid", "struct_name", "fields")

    def __init__(self, oid: int, struct_name: str, fields: Dict[str, object]):
        self.oid = oid
        self.struct_name = struct_name
        self.fields = fields

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.struct_name}#{self.oid}>"


class ArrayObj:
    """A heap-allocated dynamic array."""

    __slots__ = ("oid", "elem_type", "data")

    def __init__(self, oid: int, elem_type: Type, data: List[object]):
        self.oid = oid
        self.elem_type = elem_type
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.elem_type}[{len(self.data)}]#{self.oid}>"


class Heap:
    """Allocator with deterministic object ids."""

    def __init__(self):
        self._next_oid = 1
        self.alloc_count = 0

    def new_struct(self, sdef: StructDef) -> StructObj:
        fields = {name: default_value(t) for name, t in sdef.fields.items()}
        obj = StructObj(self._next_oid, sdef.name, fields)
        self._next_oid += 1
        self.alloc_count += 1
        return obj

    def new_array(self, elem_type: Type, length: int) -> ArrayObj:
        if length < 0:
            raise MiniCRuntimeError(f"negative array length {length}")
        data = [default_value(elem_type)] * length
        obj = ArrayObj(self._next_oid, elem_type, data)
        self._next_oid += 1
        self.alloc_count += 1
        return obj


def format_value(value: object) -> str:
    """Stable textual form of a runtime value, used by ``print``."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (StructObj, ArrayObj)):
        return "<obj>"
    return str(value)


def truthy(value: object) -> bool:
    """MiniC condition semantics (C truthiness)."""
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value != 0
    if isinstance(value, (StructObj, ArrayObj)):
        return True
    raise MiniCRuntimeError(f"value {value!r} is not usable as a condition")
