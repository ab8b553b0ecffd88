"""MiniC type system.

Types are immutable value objects:

* scalars — ``int``, ``float``, ``bool``
* ``void`` (function returns only)
* pointers to named struct types — ``Node*``
* dynamic arrays of any element type — ``int[]``, ``Node*[]``, ``int[][]``

Structs are heap-only and always manipulated through pointers, which keeps
the memory model simple (no address-of operator is needed) while still
supporting every pointer-linked data-structure idiom in the paper's
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


class Type:
    """Base class for MiniC types."""

    def is_reference(self) -> bool:
        return isinstance(self, (PointerType, ArrayType))

    def is_numeric(self) -> bool:
        return isinstance(self, (IntType, FloatType))


@dataclass(frozen=True)
class IntType(Type):
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class FloatType(Type):
    def __str__(self) -> str:
        return "float"


@dataclass(frozen=True)
class BoolType(Type):
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class VoidType(Type):
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class PointerType(Type):
    """Pointer to a named struct."""

    struct_name: str

    def __str__(self) -> str:
        return f"{self.struct_name}*"


@dataclass(frozen=True)
class ArrayType(Type):
    """Dynamically sized array of ``elem``."""

    elem: Type

    def __str__(self) -> str:
        return f"{self.elem}[]"


@dataclass(frozen=True)
class StringType(Type):
    """Only used for ``print`` format arguments."""

    def __str__(self) -> str:
        return "string"


INT = IntType()
FLOAT = FloatType()
BOOL = BoolType()
VOID = VoidType()
STRING = StringType()


@dataclass
class StructDef:
    """A named struct with ordered fields."""

    name: str
    fields: Dict[str, Type] = field(default_factory=dict)

    def field_type(self, name: str) -> Type:
        return self.fields[name]

    def has_field(self, name: str) -> bool:
        return name in self.fields

    def field_names(self) -> Tuple[str, ...]:
        return tuple(self.fields)


def assignable(target: Type, source: Type) -> bool:
    """Whether a value of ``source`` type may be assigned to ``target``.

    The only implicit conversion is ``int -> float``.  ``null`` is modelled
    by the checker as being assignable to any reference type before calling
    this predicate.
    """
    if target == source:
        return True
    if isinstance(target, FloatType) and isinstance(source, IntType):
        return True
    return False


def unify_numeric(a: Type, b: Type) -> Type:
    """Result type of an arithmetic operation on ``a`` and ``b``."""
    if isinstance(a, FloatType) or isinstance(b, FloatType):
        return FLOAT
    return INT


def is_condition_type(t: Type) -> bool:
    """MiniC accepts bool, int and references in condition position.

    This mirrors C truthiness and keeps ported loops such as
    ``while (ptr)`` and ``while (frontier->size)`` natural.
    """
    return isinstance(t, (BoolType, IntType)) or t.is_reference()
