"""Three-address IR instruction set.

The IR is register-based and non-SSA.  Scalars live in virtual registers;
structs and arrays are heap objects referenced by register-held handles.
Global variables live in a module-level store and are accessed through
explicit ``LoadGlobal``/``StoreGlobal`` instructions, which makes every
memory access in a program syntactically identifiable — the property the
dependence-profiling baselines and DCA instrumentation rely on.

Every instruction exposes ``defs()``/``uses()`` (registers only) plus
``replace_uses``/``replace_defs`` for rewriting, which the outlining and
instrumentation passes in :mod:`repro.core` use heavily.
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.lang.types import Type


@dataclass(frozen=True)
class Reg:
    """A virtual register."""

    name: str

    def __str__(self) -> str:
        return f"%{self.name}"

    def __hash__(self) -> int:
        # Regs key every dataflow set and def-use map; hashing the name
        # directly reuses the str object's cached hash instead of the
        # generated implementation's per-call field tuple.  Consistent
        # with the generated __eq__: equal iff names are equal.
        return hash(self.name)


@dataclass(frozen=True)
class Const:
    """An immediate constant (int, float, bool, string or null)."""

    value: object
    type: Optional[Type] = None

    def __str__(self) -> str:
        if self.value is None:
            return "null"
        return repr(self.value)


Operand = Union[Reg, Const]


def _fmt(op: Operand) -> str:
    return str(op)


class Instr:
    """Base class for all IR instructions."""

    __slots__ = ("line",)

    def __init__(self, line: int = 0):
        self.line = line

    # -- dataflow interface -------------------------------------------------

    def defs(self) -> List[Reg]:
        return []

    def uses(self) -> List[Reg]:
        return []

    def _use_operands(self) -> List[Operand]:
        """All operands in use position (constants included)."""
        return []

    def replace_uses(self, mapping: Dict[Reg, Operand]) -> None:
        """Substitute used registers according to ``mapping`` (in place)."""

    def replace_defs(self, mapping: Dict[Reg, Reg]) -> None:
        """Substitute defined registers according to ``mapping`` (in place)."""

    def clone(self) -> "Instr":
        return _copy.copy(self)

    def is_terminator(self) -> bool:
        return isinstance(self, (Jump, Branch, Ret))

    def is_memory_read(self) -> bool:
        return isinstance(self, (GetField, GetIndex, ArrayLen, LoadGlobal))

    def is_memory_write(self) -> bool:
        return isinstance(self, (SetField, SetIndex, StoreGlobal))

    @staticmethod
    def _subst(op: Operand, mapping: Dict[Reg, Operand]) -> Operand:
        if isinstance(op, Reg) and op in mapping:
            return mapping[op]
        return op


class Mov(Instr):
    __slots__ = ("dest", "src")

    def __init__(self, dest: Reg, src: Operand, line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.src = src

    def defs(self) -> List[Reg]:
        return [self.dest]

    def uses(self) -> List[Reg]:
        return [self.src] if isinstance(self.src, Reg) else []

    def _use_operands(self) -> List[Operand]:
        return [self.src]

    def replace_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.src = self._subst(self.src, mapping)

    def replace_defs(self, mapping: Dict[Reg, Reg]) -> None:
        self.dest = mapping.get(self.dest, self.dest)

    def __str__(self) -> str:
        return f"{self.dest} = mov {_fmt(self.src)}"


class BinOp(Instr):
    """Arithmetic/comparison. ``result_type`` distinguishes int vs float ops."""

    __slots__ = ("dest", "op", "lhs", "rhs", "result_type")

    def __init__(
        self,
        dest: Reg,
        op: str,
        lhs: Operand,
        rhs: Operand,
        result_type: Optional[Type] = None,
        line: int = 0,
    ):
        super().__init__(line)
        self.dest = dest
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        self.result_type = result_type

    def defs(self) -> List[Reg]:
        return [self.dest]

    def uses(self) -> List[Reg]:
        return [o for o in (self.lhs, self.rhs) if isinstance(o, Reg)]

    def _use_operands(self) -> List[Operand]:
        return [self.lhs, self.rhs]

    def replace_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.lhs = self._subst(self.lhs, mapping)
        self.rhs = self._subst(self.rhs, mapping)

    def replace_defs(self, mapping: Dict[Reg, Reg]) -> None:
        self.dest = mapping.get(self.dest, self.dest)

    def __str__(self) -> str:
        return f"{self.dest} = {self.op} {_fmt(self.lhs)}, {_fmt(self.rhs)}"


class UnOp(Instr):
    __slots__ = ("dest", "op", "operand")

    def __init__(self, dest: Reg, op: str, operand: Operand, line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.op = op
        self.operand = operand

    def defs(self) -> List[Reg]:
        return [self.dest]

    def uses(self) -> List[Reg]:
        return [self.operand] if isinstance(self.operand, Reg) else []

    def _use_operands(self) -> List[Operand]:
        return [self.operand]

    def replace_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.operand = self._subst(self.operand, mapping)

    def replace_defs(self, mapping: Dict[Reg, Reg]) -> None:
        self.dest = mapping.get(self.dest, self.dest)

    def __str__(self) -> str:
        return f"{self.dest} = {self.op} {_fmt(self.operand)}"


class NewStruct(Instr):
    __slots__ = ("dest", "struct_name")

    def __init__(self, dest: Reg, struct_name: str, line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.struct_name = struct_name

    def defs(self) -> List[Reg]:
        return [self.dest]

    def replace_defs(self, mapping: Dict[Reg, Reg]) -> None:
        self.dest = mapping.get(self.dest, self.dest)

    def __str__(self) -> str:
        return f"{self.dest} = new {self.struct_name}"


class NewArray(Instr):
    __slots__ = ("dest", "elem_type", "length")

    def __init__(self, dest: Reg, elem_type: Type, length: Operand, line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.elem_type = elem_type
        self.length = length

    def defs(self) -> List[Reg]:
        return [self.dest]

    def uses(self) -> List[Reg]:
        return [self.length] if isinstance(self.length, Reg) else []

    def _use_operands(self) -> List[Operand]:
        return [self.length]

    def replace_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.length = self._subst(self.length, mapping)

    def replace_defs(self, mapping: Dict[Reg, Reg]) -> None:
        self.dest = mapping.get(self.dest, self.dest)

    def __str__(self) -> str:
        return f"{self.dest} = newarray {self.elem_type}[{_fmt(self.length)}]"


class GetField(Instr):
    __slots__ = ("dest", "obj", "field")

    def __init__(self, dest: Reg, obj: Operand, field: str, line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.obj = obj
        self.field = field

    def defs(self) -> List[Reg]:
        return [self.dest]

    def uses(self) -> List[Reg]:
        return [self.obj] if isinstance(self.obj, Reg) else []

    def _use_operands(self) -> List[Operand]:
        return [self.obj]

    def replace_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.obj = self._subst(self.obj, mapping)

    def replace_defs(self, mapping: Dict[Reg, Reg]) -> None:
        self.dest = mapping.get(self.dest, self.dest)

    def __str__(self) -> str:
        return f"{self.dest} = getfield {_fmt(self.obj)}.{self.field}"


class SetField(Instr):
    __slots__ = ("obj", "field", "value")

    def __init__(self, obj: Operand, field: str, value: Operand, line: int = 0):
        super().__init__(line)
        self.obj = obj
        self.field = field
        self.value = value

    def uses(self) -> List[Reg]:
        return [o for o in (self.obj, self.value) if isinstance(o, Reg)]

    def _use_operands(self) -> List[Operand]:
        return [self.obj, self.value]

    def replace_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.obj = self._subst(self.obj, mapping)
        self.value = self._subst(self.value, mapping)

    def __str__(self) -> str:
        return f"setfield {_fmt(self.obj)}.{self.field} = {_fmt(self.value)}"


class GetIndex(Instr):
    __slots__ = ("dest", "arr", "index")

    def __init__(self, dest: Reg, arr: Operand, index: Operand, line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.arr = arr
        self.index = index

    def defs(self) -> List[Reg]:
        return [self.dest]

    def uses(self) -> List[Reg]:
        return [o for o in (self.arr, self.index) if isinstance(o, Reg)]

    def _use_operands(self) -> List[Operand]:
        return [self.arr, self.index]

    def replace_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.arr = self._subst(self.arr, mapping)
        self.index = self._subst(self.index, mapping)

    def replace_defs(self, mapping: Dict[Reg, Reg]) -> None:
        self.dest = mapping.get(self.dest, self.dest)

    def __str__(self) -> str:
        return f"{self.dest} = getindex {_fmt(self.arr)}[{_fmt(self.index)}]"


class SetIndex(Instr):
    __slots__ = ("arr", "index", "value")

    def __init__(self, arr: Operand, index: Operand, value: Operand, line: int = 0):
        super().__init__(line)
        self.arr = arr
        self.index = index
        self.value = value

    def uses(self) -> List[Reg]:
        return [o for o in (self.arr, self.index, self.value) if isinstance(o, Reg)]

    def _use_operands(self) -> List[Operand]:
        return [self.arr, self.index, self.value]

    def replace_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.arr = self._subst(self.arr, mapping)
        self.index = self._subst(self.index, mapping)
        self.value = self._subst(self.value, mapping)

    def __str__(self) -> str:
        return f"setindex {_fmt(self.arr)}[{_fmt(self.index)}] = {_fmt(self.value)}"


class ArrayLen(Instr):
    __slots__ = ("dest", "arr")

    def __init__(self, dest: Reg, arr: Operand, line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.arr = arr

    def defs(self) -> List[Reg]:
        return [self.dest]

    def uses(self) -> List[Reg]:
        return [self.arr] if isinstance(self.arr, Reg) else []

    def _use_operands(self) -> List[Operand]:
        return [self.arr]

    def replace_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.arr = self._subst(self.arr, mapping)

    def replace_defs(self, mapping: Dict[Reg, Reg]) -> None:
        self.dest = mapping.get(self.dest, self.dest)

    def __str__(self) -> str:
        return f"{self.dest} = len {_fmt(self.arr)}"


class LoadGlobal(Instr):
    __slots__ = ("dest", "name")

    def __init__(self, dest: Reg, name: str, line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.name = name

    def defs(self) -> List[Reg]:
        return [self.dest]

    def replace_defs(self, mapping: Dict[Reg, Reg]) -> None:
        self.dest = mapping.get(self.dest, self.dest)

    def __str__(self) -> str:
        return f"{self.dest} = loadglobal @{self.name}"


class StoreGlobal(Instr):
    __slots__ = ("name", "src")

    def __init__(self, name: str, src: Operand, line: int = 0):
        super().__init__(line)
        self.name = name
        self.src = src

    def uses(self) -> List[Reg]:
        return [self.src] if isinstance(self.src, Reg) else []

    def _use_operands(self) -> List[Operand]:
        return [self.src]

    def replace_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.src = self._subst(self.src, mapping)

    def __str__(self) -> str:
        return f"storeglobal @{self.name} = {_fmt(self.src)}"


class _CallBase(Instr):
    __slots__ = ("dest", "func", "args")

    def __init__(
        self, dest: Optional[Reg], func: str, args: List[Operand], line: int = 0
    ):
        super().__init__(line)
        self.dest = dest
        self.func = func
        self.args = list(args)

    def defs(self) -> List[Reg]:
        return [self.dest] if self.dest is not None else []

    def uses(self) -> List[Reg]:
        return [a for a in self.args if isinstance(a, Reg)]

    def _use_operands(self) -> List[Operand]:
        return list(self.args)

    def replace_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.args = [self._subst(a, mapping) for a in self.args]

    def replace_defs(self, mapping: Dict[Reg, Reg]) -> None:
        if self.dest is not None:
            self.dest = mapping.get(self.dest, self.dest)

    def clone(self) -> "Instr":
        new = _copy.copy(self)
        new.args = list(self.args)
        return new

    def _str(self, kw: str) -> str:
        args = ", ".join(_fmt(a) for a in self.args)
        if self.dest is not None:
            return f"{self.dest} = {kw} {self.func}({args})"
        return f"{kw} {self.func}({args})"


class Call(_CallBase):
    """Direct call to a user-defined function."""

    __slots__ = ()

    def __str__(self) -> str:
        return self._str("call")


class CallBuiltin(_CallBase):
    """Call to a language builtin (print, len, math)."""

    __slots__ = ()

    def __str__(self) -> str:
        return self._str("builtin")


class Intrinsic(_CallBase):
    """Call into the DCA runtime (``rt_*`` hooks inserted by instrumentation)."""

    __slots__ = ()

    def __str__(self) -> str:
        return self._str("intrinsic")


class Jump(Instr):
    __slots__ = ("target",)

    def __init__(self, target: str, line: int = 0):
        super().__init__(line)
        self.target = target

    def __str__(self) -> str:
        return f"jump {self.target}"


class Branch(Instr):
    """Conditional branch on the truthiness of ``cond``."""

    __slots__ = ("cond", "true_target", "false_target")

    def __init__(
        self, cond: Operand, true_target: str, false_target: str, line: int = 0
    ):
        super().__init__(line)
        self.cond = cond
        self.true_target = true_target
        self.false_target = false_target

    def uses(self) -> List[Reg]:
        return [self.cond] if isinstance(self.cond, Reg) else []

    def _use_operands(self) -> List[Operand]:
        return [self.cond]

    def replace_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.cond = self._subst(self.cond, mapping)

    def __str__(self) -> str:
        return f"branch {_fmt(self.cond)} ? {self.true_target} : {self.false_target}"


class Ret(Instr):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Operand] = None, line: int = 0):
        super().__init__(line)
        self.value = value

    def uses(self) -> List[Reg]:
        return [self.value] if isinstance(self.value, Reg) else []

    def _use_operands(self) -> List[Operand]:
        return [] if self.value is None else [self.value]

    def replace_uses(self, mapping: Dict[Reg, Operand]) -> None:
        if self.value is not None:
            self.value = self._subst(self.value, mapping)

    def __str__(self) -> str:
        if self.value is None:
            return "ret"
        return f"ret {_fmt(self.value)}"
