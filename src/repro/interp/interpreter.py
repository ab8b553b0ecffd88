"""The IR interpreter.

Executes a :class:`repro.ir.function.Module` with:

* precise C-like semantics (truncating integer division, reference
  equality on heap objects, null/bounds faults as catchable errors);
* dynamic loop-context tracking against the natural-loop forest, published
  as enter/iteration/exit events;
* memory-access events for every global/field/element read and write;
* an optional *runtime* object whose ``rt_*`` methods the ``Intrinsic``
  instructions call — this is how the DCA runtime library (paper Fig. 3)
  plugs in;
* cheap observability hooks (``repro.obs``): :func:`counted_run`, which
  the codegen backend shares, publishes each run's instructions retired
  when the process-local observability context is enabled (even on a
  faulting run).  When the context is disabled — the default — that is
  one check per run.

One ``Interpreter`` instance corresponds to one execution of the program.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.obs as obs_mod
from repro.analysis.loops import build_loop_forest
from repro.interp.events import LoopCtx, Observer
from repro.interp.values import (
    ArrayObj,
    EntryError,
    Heap,
    MiniCRuntimeError,
    StructObj,
    format_value,
    truthy,
)
from repro.ir.function import Function, Module
from repro.ir.instructions import (
    ArrayLen,
    BinOp,
    Branch,
    Call,
    CallBuiltin,
    Const,
    GetField,
    GetIndex,
    Instr,
    Intrinsic,
    Jump,
    LoadGlobal,
    Mov,
    NewArray,
    NewStruct,
    Operand,
    Reg,
    Ret,
    SetField,
    SetIndex,
    StoreGlobal,
    UnOp,
)
from repro.lang.builtins import BUILTINS
from repro.lang.types import FloatType

sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))

_DEFAULT_MAX_STEPS = 200_000_000


def _trunc_div(a: int, b: int) -> int:
    """C-style integer division (truncate toward zero)."""
    if b == 0:
        raise MiniCRuntimeError("integer division by zero")
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


def _c_mod(a: int, b: int) -> int:
    """C-style remainder: sign follows the dividend."""
    return a - _trunc_div(a, b) * b


def counted_run(executor, fn: Callable, *args) -> object:
    """Call ``fn(*args)`` as one run of ``executor``; under an enabled
    obs context publish its ``interp.runs``/``interp.instructions``,
    also when it raises: partial executions still cost instructions."""
    ctx = obs_mod.current()
    if not ctx.enabled:
        return fn(*args)
    start = executor.steps
    try:
        return fn(*args)
    finally:
        metrics = ctx.metrics
        metrics.counter("interp.runs").inc()
        metrics.counter("interp.instructions").inc(executor.steps - start)


#: The DCA runtime library's intrinsics (paper Fig. 3).  An ``Intrinsic``
#: named after one calls the attached runtime's method of that name with
#: the executor, then the evaluated arguments; both backends call it
#: directly, traced or not.
RT_INTRINSICS = (
    "rt_iterator_record",
    "rt_iterator_permute",
    "rt_iterator_next",
    "rt_iterator_get",
    "rt_verify",
)


class Interpreter:
    """Executes one program run."""

    def __init__(
        self,
        module: Module,
        runtime=None,
        observers: Optional[Sequence[Observer]] = None,
        max_steps: Optional[int] = None,
    ):
        self.module = module
        self.heap = Heap()
        self.globals: Dict[str, object] = {
            name: gv.init for name, gv in module.globals.items()
        }
        self.runtime = runtime
        self.observers: List[Observer] = list(observers or [])
        self.max_steps = max_steps or _DEFAULT_MAX_STEPS
        self.steps = 0
        self.output: List[str] = []
        self.loop_stack: List[LoopCtx] = []
        #: Stack of `Call` instructions currently executing (for access
        #: attribution by dynamic-dependence observers).
        self.call_stack: List[object] = []
        #: Bumped on every call_stack push/pop (only maintained while
        #: memory observers are attached) — lets observers cache derived
        #: views of the stack and invalidate them exactly when it moves.
        self.call_stack_version = 0
        self._invocations: Dict[str, int] = {}

        for obs in self.observers:
            obs.attach(self)
        self._loop_obs = [o for o in self.observers if o.wants_loops]
        self._mem_obs = [o for o in self.observers if o.wants_memory]
        self._track_loops = bool(self._loop_obs or self._mem_obs)
        #: per-function block → tuple of loop labels (outermost..innermost)
        self._chain_cache: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        self._header_cache: Dict[str, Dict[str, str]] = {}

        self._handlers: Dict[type, Callable] = {
            Mov: self._exec_mov,
            BinOp: self._exec_binop,
            UnOp: self._exec_unop,
            NewStruct: self._exec_newstruct,
            NewArray: self._exec_newarray,
            GetField: self._exec_getfield,
            SetField: self._exec_setfield,
            GetIndex: self._exec_getindex,
            SetIndex: self._exec_setindex,
            ArrayLen: self._exec_arraylen,
            LoadGlobal: self._exec_loadglobal,
            StoreGlobal: self._exec_storeglobal,
            Call: self._exec_call,
            CallBuiltin: self._exec_callbuiltin,
            Intrinsic: self._exec_intrinsic,
        }

    # -- public API ----------------------------------------------------------

    def run(self, entry: str = "main", args: Optional[List[object]] = None) -> object:
        func = self.module.functions.get(entry)
        if func is None:
            raise EntryError(f"no function named {entry!r}")
        args = list(args or [])
        if len(args) != len(func.params):
            raise EntryError(
                f"{entry} expects {len(func.params)} args, got {len(args)}"
            )
        return counted_run(self, self._call_function, entry, args)

    def output_text(self) -> str:
        if not self.output:
            return ""
        return "\n".join(self.output) + "\n"

    # -- loop tracking ----------------------------------------------------------

    def _block_chains(self, func: Function) -> Dict[str, Tuple[str, ...]]:
        cached = self._chain_cache.get(func.name)
        if cached is not None:
            return cached
        forest = build_loop_forest(func)
        chains: Dict[str, Tuple[str, ...]] = {}
        headers: Dict[str, str] = {}
        for name in func.block_order:
            chain = tuple(l.label for l in forest.loop_chain(name))
            chains[name] = chain
        for loop in forest.loops.values():
            headers[loop.header] = loop.label
        self._chain_cache[func.name] = chains
        self._header_cache[func.name] = headers
        return chains

    def _loop_transition(
        self,
        func: Function,
        chains: Dict[str, Tuple[str, ...]],
        prev: Optional[str],
        cur: str,
    ) -> None:
        prev_chain = chains.get(prev, ()) if prev else ()
        cur_chain = chains[cur]
        if prev_chain == cur_chain:
            if cur_chain:
                headers = self._header_cache[func.name]
                label = headers.get(cur)
                if label == cur_chain[-1] and prev is not None:
                    ctx = self.loop_stack[-1]
                    ctx.iteration += 1
                    for obs in self._loop_obs:
                        obs.on_loop_iteration(ctx.label, ctx.invocation, ctx.iteration)
            return
        common = 0
        limit = min(len(prev_chain), len(cur_chain))
        while common < limit and prev_chain[common] == cur_chain[common]:
            common += 1
        for _ in range(len(prev_chain) - common):
            ctx = self.loop_stack.pop()
            for obs in self._loop_obs:
                obs.on_loop_exit(ctx.label, ctx.invocation)
        for label in cur_chain[common:]:
            invocation = self._invocations.get(label, 0)
            self._invocations[label] = invocation + 1
            ctx = LoopCtx(label, invocation, 0)
            self.loop_stack.append(ctx)
            for obs in self._loop_obs:
                obs.on_loop_enter(label, invocation)

    # -- execution ---------------------------------------------------------------

    def _call_function(self, name: str, args: List[object]) -> object:
        func = self.module.functions[name]
        if len(args) != len(func.params):
            raise MiniCRuntimeError(
                f"{name} expects {len(func.params)} args, got {len(args)}"
            )
        frame: Dict[Reg, object] = {}
        for (reg, _t), value in zip(func.params, args):
            frame[reg] = value

        chains = self._block_chains(func) if self._track_loops else None
        prev: Optional[str] = None
        cur = func.entry
        result: object = None
        handlers = self._handlers

        while True:
            if chains is not None:
                self._loop_transition(func, chains, prev, cur)
            block = func.blocks[cur]
            instrs = block.instrs
            nbody = len(instrs) - 1
            self.steps += len(instrs)
            if self.steps > self.max_steps:
                raise MiniCRuntimeError("step limit exceeded")
            for i in range(nbody):
                handlers[type(instrs[i])](instrs[i], frame)
            term = instrs[nbody]
            tkind = type(term)
            if tkind is Jump:
                prev, cur = cur, term.target
            elif tkind is Branch:
                cond = truthy(self._value(term.cond, frame))
                prev, cur = cur, (term.true_target if cond else term.false_target)
            elif tkind is Ret:
                # A Ret block has no successors, so it lies in no natural
                # loop: the edge into it already exited the frame's loops.
                if term.value is not None:
                    result = self._value(term.value, frame)
                break
            else:  # pragma: no cover - verifier guarantees terminators
                raise MiniCRuntimeError(f"bad terminator {term}")
        return result

    # -- operand evaluation --------------------------------------------------------

    @staticmethod
    def _value(op: Operand, frame: Dict[Reg, object]) -> object:
        if type(op) is Const:
            return op.value
        try:
            return frame[op]
        except KeyError:
            raise MiniCRuntimeError(f"read of undefined register {op}") from None

    # -- instruction handlers --------------------------------------------------------

    def _exec_mov(self, instr: Mov, frame: Dict[Reg, object]) -> None:
        frame[instr.dest] = self._value(instr.src, frame)

    def _exec_binop(self, instr: BinOp, frame: Dict[Reg, object]) -> None:
        a = self._value(instr.lhs, frame)
        b = self._value(instr.rhs, frame)
        op = instr.op
        if op == "+":
            frame[instr.dest] = a + b
        elif op == "-":
            frame[instr.dest] = a - b
        elif op == "*":
            frame[instr.dest] = a * b
        elif op == "/":
            if isinstance(instr.result_type, FloatType):
                if b == 0:
                    raise MiniCRuntimeError("float division by zero")
                frame[instr.dest] = a / b
            else:
                frame[instr.dest] = _trunc_div(a, b)
        elif op == "%":
            frame[instr.dest] = _c_mod(a, b)
        elif op == "==":
            frame[instr.dest] = self._ref_eq(a, b)
        elif op == "!=":
            frame[instr.dest] = not self._ref_eq(a, b)
        elif op == "<":
            frame[instr.dest] = a < b
        elif op == "<=":
            frame[instr.dest] = a <= b
        elif op == ">":
            frame[instr.dest] = a > b
        elif op == ">=":
            frame[instr.dest] = a >= b
        else:  # pragma: no cover
            raise MiniCRuntimeError(f"unknown binary operator {op}")

    @staticmethod
    def _ref_eq(a: object, b: object) -> bool:
        if isinstance(a, (StructObj, ArrayObj)) or isinstance(b, (StructObj, ArrayObj)):
            return a is b
        if a is None or b is None:
            return a is None and b is None
        return a == b

    def _exec_unop(self, instr: UnOp, frame: Dict[Reg, object]) -> None:
        v = self._value(instr.operand, frame)
        if instr.op == "-":
            frame[instr.dest] = -v
        elif instr.op == "!":
            frame[instr.dest] = not truthy(v)
        elif instr.op == "itof":
            frame[instr.dest] = float(v)
        else:  # pragma: no cover
            raise MiniCRuntimeError(f"unknown unary operator {instr.op}")

    def _exec_newstruct(self, instr: NewStruct, frame: Dict[Reg, object]) -> None:
        sdef = self.module.structs[instr.struct_name]
        frame[instr.dest] = self.heap.new_struct(sdef)

    def _exec_newarray(self, instr: NewArray, frame: Dict[Reg, object]) -> None:
        length = self._value(instr.length, frame)
        frame[instr.dest] = self.heap.new_array(instr.elem_type, length)

    def _exec_getfield(self, instr: GetField, frame: Dict[Reg, object]) -> None:
        obj = self._value(instr.obj, frame)
        if obj is None:
            raise MiniCRuntimeError(
                f"null dereference reading .{instr.field} (line {instr.line})"
            )
        if self._mem_obs:
            loc = ("f", obj.oid, instr.field)
            for obs in self._mem_obs:
                obs.on_read(loc, instr)
        frame[instr.dest] = obj.fields[instr.field]

    def _exec_setfield(self, instr: SetField, frame: Dict[Reg, object]) -> None:
        obj = self._value(instr.obj, frame)
        if obj is None:
            raise MiniCRuntimeError(
                f"null dereference writing .{instr.field} (line {instr.line})"
            )
        if self._mem_obs:
            loc = ("f", obj.oid, instr.field)
            for obs in self._mem_obs:
                obs.on_write(loc, instr)
        obj.fields[instr.field] = self._value(instr.value, frame)

    def _exec_getindex(self, instr: GetIndex, frame: Dict[Reg, object]) -> None:
        arr = self._value(instr.arr, frame)
        idx = self._value(instr.index, frame)
        if arr is None:
            raise MiniCRuntimeError(f"null array read (line {instr.line})")
        if not 0 <= idx < len(arr.data):
            raise MiniCRuntimeError(
                f"index {idx} out of bounds [0,{len(arr.data)}) (line {instr.line})"
            )
        if self._mem_obs:
            loc = ("a", arr.oid, idx)
            for obs in self._mem_obs:
                obs.on_read(loc, instr)
        frame[instr.dest] = arr.data[idx]

    def _exec_setindex(self, instr: SetIndex, frame: Dict[Reg, object]) -> None:
        arr = self._value(instr.arr, frame)
        idx = self._value(instr.index, frame)
        if arr is None:
            raise MiniCRuntimeError(f"null array write (line {instr.line})")
        if not 0 <= idx < len(arr.data):
            raise MiniCRuntimeError(
                f"index {idx} out of bounds [0,{len(arr.data)}) (line {instr.line})"
            )
        if self._mem_obs:
            loc = ("a", arr.oid, idx)
            for obs in self._mem_obs:
                obs.on_write(loc, instr)
        arr.data[idx] = self._value(instr.value, frame)

    def _exec_arraylen(self, instr: ArrayLen, frame: Dict[Reg, object]) -> None:
        arr = self._value(instr.arr, frame)
        if arr is None:
            raise MiniCRuntimeError(f"len(null) (line {instr.line})")
        frame[instr.dest] = len(arr.data)

    def _exec_loadglobal(self, instr: LoadGlobal, frame: Dict[Reg, object]) -> None:
        if self._mem_obs:
            loc = ("g", instr.name)
            for obs in self._mem_obs:
                obs.on_read(loc, instr)
        frame[instr.dest] = self.globals[instr.name]

    def _exec_storeglobal(self, instr: StoreGlobal, frame: Dict[Reg, object]) -> None:
        if self._mem_obs:
            loc = ("g", instr.name)
            for obs in self._mem_obs:
                obs.on_write(loc, instr)
        self.globals[instr.name] = self._value(instr.src, frame)

    def _exec_call(self, instr: Call, frame: Dict[Reg, object]) -> None:
        args = [self._value(a, frame) for a in instr.args]
        if self._mem_obs:
            self.call_stack.append(instr)
            self.call_stack_version += 1
            try:
                result = self._call_function(instr.func, args)
            finally:
                self.call_stack.pop()
                self.call_stack_version += 1
        else:
            result = self._call_function(instr.func, args)
        if instr.dest is not None:
            frame[instr.dest] = result

    def _exec_callbuiltin(self, instr: CallBuiltin, frame: Dict[Reg, object]) -> None:
        args = [self._value(a, frame) for a in instr.args]
        if instr.func == "print":
            self.output.append(" ".join(format_value(a) for a in args))
            return
        builtin = BUILTINS[instr.func]
        assert builtin.impl is not None
        try:
            result = builtin.impl(*args)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise MiniCRuntimeError(f"{instr.func}: {exc}") from None
        if instr.dest is not None:
            frame[instr.dest] = result

    def _exec_intrinsic(self, instr: Intrinsic, frame: Dict[Reg, object]) -> None:
        args = [self._value(a, frame) for a in instr.args]
        if self.runtime is None:
            raise MiniCRuntimeError(
                f"intrinsic {instr.func!r} executed without a runtime"
            )
        if instr.func not in RT_INTRINSICS:
            raise MiniCRuntimeError(f"unknown DCA intrinsic {instr.func!r}")
        result = getattr(self.runtime, instr.func)(self, *args)
        if instr.dest is not None:
            frame[instr.dest] = result
