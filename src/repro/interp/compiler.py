"""Closure-compilation execution backend.

The tree-walking :class:`~repro.interp.interpreter.Interpreter` pays, for
every executed instruction, a ``type()``-keyed dict dispatch, a
``Const``-vs-``Reg`` check per operand, a dict lookup per register (with
the dataclass ``Reg.__hash__`` recomputed each time) and the ``BinOp``
``if/elif`` ladder.  DCA's cost model is "one golden run plus one run per
testing schedule" (paper §IV-B), so the same instrumented module is
executed many times — a compile-once-replay-many backend amortizes all of
that per-step work into a single lowering pass:

* every IR :class:`~repro.ir.function.Function` is lowered **once** into
  nested Python closures — one closure per instruction, chained into
  direct-threaded basic blocks (each block closure returns the next
  block, so there is no dispatch table at run time);
* registers are pre-resolved to **list slots** (no dict, no hashing);
* operands are specialized at compile time: constants are baked into the
  closure, so there is no per-step ``Const`` check;
* ``BinOp`` is specialized per operator and result type, replacing the
  ``if/elif`` ladder with a captured C-level function
  (``operator.add`` & co, or the shared C-semantics helpers);
* fault messages (null dereference, bounds, division) are pre-formatted
  at compile time where possible, and always carry the same line numbers
  and wording as the interpreter's.

The backend preserves **exact interpreter semantics**: step accounting
(``len(block.instrs)`` charged on block entry, checked against
``max_steps`` before the block body runs), C-style division/remainder,
reference equality, MiniC truthiness, builtin error wrapping, and
intrinsic dispatch into the DCA runtime.  The executor object exposes the
same surface the runtime touches (``globals``, ``heap``, ``steps``,
``output_text``), so :class:`~repro.core.runtime.DcaRuntime` works
unchanged.

It deliberately supports **no observers and no profiler**: observability-
bearing paths (dynamic-dependence profiling, ``repro profile``, memory
and loop observers) always fall back to the tree-walking interpreter —
:func:`create_executor` encodes that rule.  Reports produced under the
compiled backend are byte-identical to the interpreter's; the
differential fuzz harness and ``benchmarks/test_compiled_backend_speedup``
enforce it.
"""

from __future__ import annotations

import operator
import os
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.interp.interpreter import (
    _DEFAULT_MAX_STEPS,
    _c_mod,
    _trunc_div,
    Interpreter,
    RuntimeHooks,
)
from repro.interp.values import (
    Heap,
    MiniCRuntimeError,
    format_value,
    truthy,
)
from repro.ir.function import Module
from repro.ir.instructions import (
    ArrayLen,
    BinOp,
    Branch,
    Call,
    CallBuiltin,
    Const,
    GetField,
    GetIndex,
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

__all__ = [
    "EXEC_BACKENDS",
    "EXEC_BACKEND_ENV",
    "CompileError",
    "CompiledExecutor",
    "CompiledProgram",
    "compile_module",
    "create_executor",
    "resolve_exec_backend",
]

#: Environment knob consulted when no explicit backend is given (lets CI
#: run the whole suite under the compiled backend).
EXEC_BACKEND_ENV = "REPRO_EXEC_BACKEND"

#: Supported execution backends.  Single source of truth: CLI choices
#: and :class:`repro.api.AnalysisConfig` validation both derive from
#: this tuple, so a backend added here is reachable from every surface.
EXEC_BACKENDS = ("interp", "compiled", "codegen")


def resolve_exec_backend(backend: Optional[str] = None) -> str:
    """Resolve an execution backend name.

    Resolution order: explicit argument, then the ``REPRO_EXEC_BACKEND``
    environment variable, then ``interp``.
    """
    if backend is None:
        backend = os.environ.get(EXEC_BACKEND_ENV, "").strip() or None
    if backend is None:
        return "interp"
    if backend not in EXEC_BACKENDS:
        raise ValueError(
            f"unknown exec backend {backend!r}; expected one of {EXEC_BACKENDS}"
        )
    return backend


class CompileError(Exception):
    """Raised when a module cannot be closure-compiled.

    Callers treat this as "use the interpreter instead" — compilation is
    an optimization, never a semantic requirement.
    """


class _Undefined:
    """Sentinel filling frame slots before their register is written."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<undefined>"


_UNDEF = _Undefined()


def _raise_undef(reg: Reg) -> None:
    raise MiniCRuntimeError(f"read of undefined register {reg}")


_ref_eq = Interpreter._ref_eq


def _ref_ne(a: object, b: object) -> bool:
    return not _ref_eq(a, b)


def _fdiv(a: object, b: object) -> object:
    if b == 0:
        raise MiniCRuntimeError("float division by zero")
    return a / b


def _not_truthy(v: object) -> bool:
    return not truthy(v)


#: BinOp operator -> C-level implementation (``/`` handled separately:
#: its meaning depends on the instruction's result type).
_BIN_FUNCS: Dict[str, Callable] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "%": _c_mod,
    "==": _ref_eq,
    "!=": _ref_ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: UnOp operator -> implementation.
_UN_FUNCS: Dict[str, Callable] = {
    "-": operator.neg,
    "!": _not_truthy,
    "itof": float,
}


class _Block:
    """One direct-threaded basic block: op closures plus a terminator.

    ``term(state, frame)`` returns the next ``_Block`` or ``None`` for a
    return; ``n`` is the step charge (``len(block.instrs)``, terminator
    included — identical to the interpreter's accounting).  After
    compilation the block is *sealed*: ``run(state, frame)`` executes the
    whole body and returns the next block, with small bodies unrolled so
    the dispatch loop pays one call per block instead of one per
    instruction.
    """

    __slots__ = ("ops", "term", "n", "run")


def _seal_block(blk: _Block) -> None:
    """Fuse a block's op chain and terminator into one ``run`` closure."""
    ops = blk.ops
    term = blk.term
    n = len(ops)
    if n == 0:
        blk.run = term
        return
    if n == 1:
        op0 = ops[0]

        def run(state, frame):
            op0(state, frame)
            return term(state, frame)
    elif n == 2:
        op0, op1 = ops

        def run(state, frame):
            op0(state, frame)
            op1(state, frame)
            return term(state, frame)
    elif n == 3:
        op0, op1, op2 = ops

        def run(state, frame):
            op0(state, frame)
            op1(state, frame)
            op2(state, frame)
            return term(state, frame)
    elif n == 4:
        op0, op1, op2, op3 = ops

        def run(state, frame):
            op0(state, frame)
            op1(state, frame)
            op2(state, frame)
            op3(state, frame)
            return term(state, frame)
    else:
        def run(state, frame):
            for op in ops:
                op(state, frame)
            return term(state, frame)
    blk.run = run


class CompiledFunction:
    """A lowered IR function; ``call(state, args)`` executes it."""

    __slots__ = ("name", "nparams", "call")

    def __init__(self, name: str, nparams: int):
        self.name = name
        self.nparams = nparams
        self.call: Optional[Callable] = None


class CompiledProgram:
    """A closure-compiled :class:`~repro.ir.function.Module`.

    Compilation touches only immutable module state (structs, function
    bodies); execution never mutates the module, so one compiled program
    is safely shared by any number of sequential executions.
    """

    __slots__ = ("module", "functions")

    def __init__(self, module: Module):
        self.module = module
        self.functions: Dict[str, CompiledFunction] = {}


# ---------------------------------------------------------------------------
# Operand helpers
# ---------------------------------------------------------------------------


def _src(op: Operand, slot: Callable[[Reg], int]) -> Tuple[bool, object, int, Optional[Reg]]:
    """Compile one use-position operand.

    Returns ``(is_const, const_value, slot_index, reg)`` — exactly one of
    the value/slot halves is meaningful.
    """
    if type(op) is Const:
        return True, op.value, -1, None
    return False, None, slot(op), op


def _make_args_eval(
    operands: Sequence[Operand], slot: Callable[[Reg], int]
) -> Callable[[List[object]], List[object]]:
    """Build ``eval_args(frame) -> list`` with small-arity specializations."""
    plan = tuple(_src(a, slot) for a in operands)
    n = len(plan)
    if n == 0:
        def eval_args(frame):
            return []
        return eval_args
    if n == 1:
        c0, v0, s0, r0 = plan[0]
        if c0:
            def eval_args(frame):
                return [v0]
        else:
            def eval_args(frame):
                a = frame[s0]
                if a is _UNDEF:
                    _raise_undef(r0)
                return [a]
        return eval_args
    if n == 2:
        c0, v0, s0, r0 = plan[0]
        c1, v1, s1, r1 = plan[1]

        def eval_args(frame):
            if c0:
                a = v0
            else:
                a = frame[s0]
                if a is _UNDEF:
                    _raise_undef(r0)
            if c1:
                b = v1
            else:
                b = frame[s1]
                if b is _UNDEF:
                    _raise_undef(r1)
            return [a, b]
        return eval_args

    def eval_args(frame):
        args = []
        append = args.append
        for const, v, s, r in plan:
            if const:
                append(v)
            else:
                a = frame[s]
                if a is _UNDEF:
                    _raise_undef(r)
                append(a)
        return args
    return eval_args


# ---------------------------------------------------------------------------
# Instruction compilation
# ---------------------------------------------------------------------------


def _c_mov(instr: Mov, slot, program) -> Callable:
    d = slot(instr.dest)
    const, v, s, r = _src(instr.src, slot)
    if const:
        def run(state, frame):
            frame[d] = v
    else:
        def run(state, frame):
            a = frame[s]
            if a is _UNDEF:
                _raise_undef(r)
            frame[d] = a
    return run


def _c_binop(instr: BinOp, slot, program) -> Callable:
    op = instr.op
    if op == "/":
        fn = _fdiv if isinstance(instr.result_type, FloatType) else _trunc_div
    else:
        fn = _BIN_FUNCS.get(op)
        if fn is None:
            raise CompileError(f"unknown binary operator {op}")
    d = slot(instr.dest)
    lc, lv, ls, lr = _src(instr.lhs, slot)
    rc, rv, rs, rr = _src(instr.rhs, slot)
    if lc and rc:
        # Both operands baked; the operator still runs per step so fault
        # semantics (e.g. a constant division by zero) are unchanged.
        def run(state, frame):
            frame[d] = fn(lv, rv)
    elif lc:
        def run(state, frame):
            b = frame[rs]
            if b is _UNDEF:
                _raise_undef(rr)
            frame[d] = fn(lv, b)
    elif rc:
        def run(state, frame):
            a = frame[ls]
            if a is _UNDEF:
                _raise_undef(lr)
            frame[d] = fn(a, rv)
    else:
        def run(state, frame):
            a = frame[ls]
            if a is _UNDEF:
                _raise_undef(lr)
            b = frame[rs]
            if b is _UNDEF:
                _raise_undef(rr)
            frame[d] = fn(a, b)
    return run


def _c_unop(instr: UnOp, slot, program) -> Callable:
    fn = _UN_FUNCS.get(instr.op)
    if fn is None:
        raise CompileError(f"unknown unary operator {instr.op}")
    d = slot(instr.dest)
    const, v, s, r = _src(instr.operand, slot)
    if const:
        def run(state, frame):
            frame[d] = fn(v)
    else:
        def run(state, frame):
            a = frame[s]
            if a is _UNDEF:
                _raise_undef(r)
            frame[d] = fn(a)
    return run


def _c_newstruct(instr: NewStruct, slot, program) -> Callable:
    d = slot(instr.dest)
    sdef = program.module.structs[instr.struct_name]

    def run(state, frame):
        frame[d] = state.heap.new_struct(sdef)
    return run


def _c_newarray(instr: NewArray, slot, program) -> Callable:
    d = slot(instr.dest)
    elem_type = instr.elem_type
    const, v, s, r = _src(instr.length, slot)
    if const:
        def run(state, frame):
            frame[d] = state.heap.new_array(elem_type, v)
    else:
        def run(state, frame):
            length = frame[s]
            if length is _UNDEF:
                _raise_undef(r)
            frame[d] = state.heap.new_array(elem_type, length)
    return run


def _c_getfield(instr: GetField, slot, program) -> Callable:
    d = slot(instr.dest)
    fname = instr.field
    msg = f"null dereference reading .{instr.field} (line {instr.line})"
    const, v, s, r = _src(instr.obj, slot)
    if const:
        def run(state, frame):
            if v is None:
                raise MiniCRuntimeError(msg)
            frame[d] = v.fields[fname]
    else:
        def run(state, frame):
            obj = frame[s]
            if obj is _UNDEF:
                _raise_undef(r)
            if obj is None:
                raise MiniCRuntimeError(msg)
            frame[d] = obj.fields[fname]
    return run


def _c_setfield(instr: SetField, slot, program) -> Callable:
    fname = instr.field
    msg = f"null dereference writing .{instr.field} (line {instr.line})"
    oc, ov, os_, orr = _src(instr.obj, slot)
    vc, vv, vs, vr = _src(instr.value, slot)

    # The interpreter reads the value operand only after the null check.
    if not oc and not vc:
        def run(state, frame):
            obj = frame[os_]
            if obj is _UNDEF:
                _raise_undef(orr)
            if obj is None:
                raise MiniCRuntimeError(msg)
            value = frame[vs]
            if value is _UNDEF:
                _raise_undef(vr)
            obj.fields[fname] = value
    elif not oc:
        def run(state, frame):
            obj = frame[os_]
            if obj is _UNDEF:
                _raise_undef(orr)
            if obj is None:
                raise MiniCRuntimeError(msg)
            obj.fields[fname] = vv
    else:
        def run(state, frame):
            if ov is None:
                raise MiniCRuntimeError(msg)
            if vc:
                obj_value = vv
            else:
                obj_value = frame[vs]
                if obj_value is _UNDEF:
                    _raise_undef(vr)
            ov.fields[fname] = obj_value
    return run


def _c_getindex(instr: GetIndex, slot, program) -> Callable:
    d = slot(instr.dest)
    line = instr.line
    nullmsg = f"null array read (line {line})"
    ac, av, as_, ar = _src(instr.arr, slot)
    ic, iv, is_, ir = _src(instr.index, slot)
    if not ac and not ic:
        def run(state, frame):
            arr = frame[as_]
            if arr is _UNDEF:
                _raise_undef(ar)
            idx = frame[is_]
            if idx is _UNDEF:
                _raise_undef(ir)
            if arr is None:
                raise MiniCRuntimeError(nullmsg)
            data = arr.data
            if 0 <= idx < len(data):
                frame[d] = data[idx]
            else:
                raise MiniCRuntimeError(
                    f"index {idx} out of bounds [0,{len(data)}) (line {line})"
                )
    elif not ac:
        def run(state, frame):
            arr = frame[as_]
            if arr is _UNDEF:
                _raise_undef(ar)
            if arr is None:
                raise MiniCRuntimeError(nullmsg)
            data = arr.data
            if 0 <= iv < len(data):
                frame[d] = data[iv]
            else:
                raise MiniCRuntimeError(
                    f"index {iv} out of bounds [0,{len(data)}) (line {line})"
                )
    else:
        def run(state, frame):
            if ic:
                idx = iv
            else:
                idx = frame[is_]
                if idx is _UNDEF:
                    _raise_undef(ir)
            if av is None:
                raise MiniCRuntimeError(nullmsg)
            data = av.data
            if 0 <= idx < len(data):
                frame[d] = data[idx]
            else:
                raise MiniCRuntimeError(
                    f"index {idx} out of bounds [0,{len(data)}) (line {line})"
                )
    return run


def _c_setindex(instr: SetIndex, slot, program) -> Callable:
    line = instr.line
    nullmsg = f"null array write (line {line})"
    ac, av, as_, ar = _src(instr.arr, slot)
    ic, iv, is_, ir = _src(instr.index, slot)
    vc, vv, vs, vr = _src(instr.value, slot)

    # Interpreter order: arr, index, null check, bounds check, then the
    # value read.  Keep it so faults fire in the same order.
    def run(state, frame):
        if ac:
            arr = av
        else:
            arr = frame[as_]
            if arr is _UNDEF:
                _raise_undef(ar)
        if ic:
            idx = iv
        else:
            idx = frame[is_]
            if idx is _UNDEF:
                _raise_undef(ir)
        if arr is None:
            raise MiniCRuntimeError(nullmsg)
        data = arr.data
        if not 0 <= idx < len(data):
            raise MiniCRuntimeError(
                f"index {idx} out of bounds [0,{len(data)}) (line {line})"
            )
        if vc:
            data[idx] = vv
        else:
            value = frame[vs]
            if value is _UNDEF:
                _raise_undef(vr)
            data[idx] = value
    return run


def _c_arraylen(instr: ArrayLen, slot, program) -> Callable:
    d = slot(instr.dest)
    msg = f"len(null) (line {instr.line})"
    const, v, s, r = _src(instr.arr, slot)
    if const:
        def run(state, frame):
            if v is None:
                raise MiniCRuntimeError(msg)
            frame[d] = len(v.data)
    else:
        def run(state, frame):
            arr = frame[s]
            if arr is _UNDEF:
                _raise_undef(r)
            if arr is None:
                raise MiniCRuntimeError(msg)
            frame[d] = len(arr.data)
    return run


def _c_loadglobal(instr: LoadGlobal, slot, program) -> Callable:
    d = slot(instr.dest)
    name = instr.name

    def run(state, frame):
        frame[d] = state.globals[name]
    return run


def _c_storeglobal(instr: StoreGlobal, slot, program) -> Callable:
    name = instr.name
    const, v, s, r = _src(instr.src, slot)
    if const:
        def run(state, frame):
            state.globals[name] = v
    else:
        def run(state, frame):
            a = frame[s]
            if a is _UNDEF:
                _raise_undef(r)
            state.globals[name] = a
    return run


def _c_call(instr: Call, slot, program) -> Callable:
    callee = program.functions.get(instr.func)
    if callee is None:
        raise CompileError(f"call to unknown function {instr.func!r}")
    eval_args = _make_args_eval(instr.args, slot)
    if instr.dest is not None:
        d = slot(instr.dest)

        def run(state, frame):
            frame[d] = callee.call(state, eval_args(frame))
    else:
        def run(state, frame):
            callee.call(state, eval_args(frame))
    return run


def _c_callbuiltin(instr: CallBuiltin, slot, program) -> Callable:
    fname = instr.func
    eval_args = _make_args_eval(instr.args, slot)
    if fname == "print":
        def run(state, frame):
            state.output.append(
                " ".join(format_value(a) for a in eval_args(frame))
            )
        return run
    builtin = BUILTINS.get(fname)
    if builtin is None or builtin.impl is None:
        raise CompileError(f"builtin {fname!r} has no host implementation")
    impl = builtin.impl
    if instr.dest is not None:
        d = slot(instr.dest)

        def run(state, frame):
            args = eval_args(frame)
            try:
                frame[d] = impl(*args)
            except (ValueError, OverflowError, ZeroDivisionError) as exc:
                raise MiniCRuntimeError(f"{fname}: {exc}") from None
    else:
        def run(state, frame):
            args = eval_args(frame)
            try:
                impl(*args)
            except (ValueError, OverflowError, ZeroDivisionError) as exc:
                raise MiniCRuntimeError(f"{fname}: {exc}") from None
    return run


# The five DCA intrinsic names, mirrored from repro.core.instrument
# (string literals here to keep interp free of a core dependency).
_RT_RECORD = "rt_iterator_record"
_RT_PERMUTE = "rt_iterator_permute"
_RT_NEXT = "rt_iterator_next"
_RT_GET = "rt_iterator_get"
_RT_VERIFY = "rt_verify"


def _c_intrinsic(instr: Intrinsic, slot, program) -> Callable:
    name = instr.func
    eval_args = _make_args_eval(instr.args, slot)
    nort = f"intrinsic {name!r} executed without a runtime"
    args = instr.args

    # Specialized dispatch for the DCA intrinsics: when the runtime opts
    # in (``fast_intrinsics``, i.e. its ``handle_intrinsic`` is a pure
    # name dispatch) and the label is a compile-time constant, call the
    # handler method directly — rt_iterator_get/next fire once per loop
    # iteration, so skipping the name ladder and the argument list is a
    # measurable share of replay time.  Any other runtime falls back to
    # ``handle_intrinsic`` with identical semantics.
    if args and _src(args[0], slot)[0]:
        label = _src(args[0], slot)[1]
        if name == _RT_GET and instr.dest is not None and len(args) == 2:
            idx_const, idx = _src(args[1], slot)[:2]
            if idx_const:
                d = slot(instr.dest)

                def run(state, frame):
                    rt = state.runtime
                    if rt is None:
                        raise MiniCRuntimeError(nort)
                    if rt.fast_intrinsics:
                        frame[d] = rt._get(label, idx)
                    else:
                        frame[d] = rt.handle_intrinsic(
                            state, name, eval_args(frame)
                        )
                return run
        elif name == _RT_NEXT and instr.dest is not None and len(args) == 1:
            d = slot(instr.dest)

            def run(state, frame):
                rt = state.runtime
                if rt is None:
                    raise MiniCRuntimeError(nort)
                if rt.fast_intrinsics:
                    frame[d] = rt._next(label)
                else:
                    frame[d] = rt.handle_intrinsic(state, name, eval_args(frame))
            return run
        elif name == _RT_RECORD and instr.dest is None:
            eval_vals = _make_args_eval(args[1:], slot)

            def run(state, frame):
                rt = state.runtime
                if rt is None:
                    raise MiniCRuntimeError(nort)
                if rt.fast_intrinsics:
                    rt._record(label, tuple(eval_vals(frame)))
                else:
                    rt.handle_intrinsic(state, name, eval_args(frame))
            return run
        elif name == _RT_PERMUTE and instr.dest is None and len(args) == 1:
            def run(state, frame):
                rt = state.runtime
                if rt is None:
                    raise MiniCRuntimeError(nort)
                if rt.fast_intrinsics:
                    rt._permute(label)
                else:
                    rt.handle_intrinsic(state, name, eval_args(frame))
            return run
        elif name == _RT_VERIFY and instr.dest is None:
            eval_vals = _make_args_eval(args[1:], slot)

            def run(state, frame):
                rt = state.runtime
                if rt is None:
                    raise MiniCRuntimeError(nort)
                if rt.fast_intrinsics:
                    rt._verify(state, label, eval_vals(frame))
                else:
                    rt.handle_intrinsic(state, name, eval_args(frame))
            return run

    if instr.dest is not None:
        d = slot(instr.dest)

        def run(state, frame):
            args = eval_args(frame)
            runtime = state.runtime
            if runtime is None:
                raise MiniCRuntimeError(nort)
            frame[d] = runtime.handle_intrinsic(state, name, args)
    else:
        def run(state, frame):
            args = eval_args(frame)
            runtime = state.runtime
            if runtime is None:
                raise MiniCRuntimeError(nort)
            runtime.handle_intrinsic(state, name, args)
    return run


_COMPILERS: Dict[type, Callable] = {
    Mov: _c_mov,
    BinOp: _c_binop,
    UnOp: _c_unop,
    NewStruct: _c_newstruct,
    NewArray: _c_newarray,
    GetField: _c_getfield,
    SetField: _c_setfield,
    GetIndex: _c_getindex,
    SetIndex: _c_setindex,
    ArrayLen: _c_arraylen,
    LoadGlobal: _c_loadglobal,
    StoreGlobal: _c_storeglobal,
    Call: _c_call,
    CallBuiltin: _c_callbuiltin,
    Intrinsic: _c_intrinsic,
}


def _compile_terminator(instr, slot, blocks: Dict[str, _Block]) -> Callable:
    t = type(instr)
    if t is Jump:
        target = blocks[instr.target]

        def term(state, frame):
            return target
        return term
    if t is Branch:
        tb = blocks[instr.true_target]
        fb = blocks[instr.false_target]
        const, v, s, r = _src(instr.cond, slot)
        if const:
            try:
                taken = tb if truthy(v) else fb
            except MiniCRuntimeError:
                def term(state, frame):
                    truthy(v)  # raises: constant is not a valid condition
                    return tb  # pragma: no cover - unreachable
            else:
                def term(state, frame):
                    return taken
            return term

        def term(state, frame):
            c = frame[s]
            if c is True:
                return tb
            if c is False:
                return fb
            if c is _UNDEF:
                _raise_undef(r)
            return tb if truthy(c) else fb
        return term
    if t is Ret:
        value = instr.value
        if value is None:
            def term(state, frame):
                state.retval = None
                return None
        elif type(value) is Const:
            v = value.value

            def term(state, frame):
                state.retval = v
                return None
        else:
            s = slot(value)
            r = value

            def term(state, frame):
                a = frame[s]
                if a is _UNDEF:
                    _raise_undef(r)
                state.retval = a
                return None
        return term
    # Mirror the interpreter: a malformed last instruction faults at run
    # time with the same message, without executing it.
    msg = f"bad terminator {instr}"

    def term(state, frame):  # pragma: no cover - verifier guarantees terminators
        raise MiniCRuntimeError(msg)
    return term


def _compile_function(func, program: CompiledProgram) -> Callable:
    slots: Dict[Reg, int] = {}

    def slot(reg: Reg) -> int:
        s = slots.get(reg)
        if s is None:
            s = slots[reg] = len(slots)
        return s

    param_slots = [slot(reg) for reg, _t in func.params]
    nparams = len(func.params)

    blocks: Dict[str, _Block] = {name: _Block() for name in func.block_order}
    for name in func.block_order:
        src = func.blocks[name]
        instrs = src.instrs
        if not instrs:
            raise CompileError(f"empty block {name!r} in {func.name}")
        blk = blocks[name]
        blk.n = len(instrs)
        ops = []
        for i in instrs[:-1]:
            factory = _COMPILERS.get(type(i))
            if factory is None:
                raise CompileError(f"uncompilable instruction {i}")
            ops.append(factory(i, slot, program))
        blk.ops = tuple(ops)
        blk.term = _compile_terminator(instrs[-1], slot, blocks)
    for blk in blocks.values():
        _seal_block(blk)

    entry_block = blocks[func.entry]
    nregs = len(slots)
    fname = func.name
    # Fast path: parameters landed on slots 0..n-1 in declaration order,
    # so the argument list *is* the frame prefix.
    contiguous = param_slots == list(range(nparams))
    padding = [_UNDEF] * (nregs - nparams)

    if contiguous:
        def call(state, args):
            if len(args) != nparams:
                raise MiniCRuntimeError(
                    f"{fname} expects {nparams} args, got {len(args)}"
                )
            frame = args + padding
            block = entry_block
            max_steps = state.max_steps
            while block is not None:
                steps = state.steps + block.n
                state.steps = steps
                if steps > max_steps:
                    raise MiniCRuntimeError("step limit exceeded")
                block = block.run(state, frame)
            return state.retval
    else:  # pragma: no cover - duplicate parameter registers
        def call(state, args):
            if len(args) != nparams:
                raise MiniCRuntimeError(
                    f"{fname} expects {nparams} args, got {len(args)}"
                )
            frame = [_UNDEF] * nregs
            for s, value in zip(param_slots, args):
                frame[s] = value
            block = entry_block
            max_steps = state.max_steps
            while block is not None:
                steps = state.steps + block.n
                state.steps = steps
                if steps > max_steps:
                    raise MiniCRuntimeError("step limit exceeded")
                block = block.run(state, frame)
            return state.retval
    return call


# ---------------------------------------------------------------------------
# Module compilation (cached per Module object)
# ---------------------------------------------------------------------------

#: Bounded LRU of compiled programs.  Keyed by ``id(module)`` because
#: Module is an unhashable dataclass.  Entries hold the module strongly —
#: the program references it anyway — so eviction is the only way a
#: cached module dies; the ``entry[0] is module`` check below guards
#: against ``id()`` reuse after eviction.
_MODULE_CACHE: "OrderedDict[int, Tuple[Module, CompiledProgram]]" = OrderedDict()
_MODULE_CACHE_MAX = 64


def compile_module(module: Module) -> CompiledProgram:
    """Lower ``module`` into closures, once; repeated calls are cached.

    Raises :class:`CompileError` when the module contains something the
    backend cannot lower — callers fall back to the interpreter.
    """
    key = id(module)
    entry = _MODULE_CACHE.get(key)
    if entry is not None and entry[0] is module:
        _MODULE_CACHE.move_to_end(key)
        obs.current().count("compile.module_cache.hits")
        return entry[1]
    obs.current().count("compile.module_cache.misses")

    program = CompiledProgram(module)
    for name, func in module.functions.items():
        program.functions[name] = CompiledFunction(name, len(func.params))
    try:
        for name, func in module.functions.items():
            program.functions[name].call = _compile_function(func, program)
    except CompileError:
        raise
    except Exception as exc:
        raise CompileError(f"closure compilation failed: {exc!r}") from exc

    _MODULE_CACHE[key] = (module, program)
    while len(_MODULE_CACHE) > _MODULE_CACHE_MAX:
        _MODULE_CACHE.popitem(last=False)
    return program


class CompiledExecutor:
    """One execution of a compiled program.

    API-compatible with :class:`~repro.interp.interpreter.Interpreter`
    for runtime-only runs: ``run``, ``steps``, ``globals``, ``heap``,
    ``output``/``output_text`` and the ``module`` attribute, which is all
    the DCA runtime and the schedule engine touch.
    """

    __slots__ = (
        "program",
        "module",
        "heap",
        "globals",
        "runtime",
        "max_steps",
        "steps",
        "output",
        "retval",
    )

    def __init__(
        self,
        program,
        runtime: Optional[RuntimeHooks] = None,
        max_steps: Optional[int] = None,
    ):
        if isinstance(program, Module):
            program = compile_module(program)
        self.program = program
        self.module = program.module
        self.heap = Heap()
        self.globals: Dict[str, object] = {
            name: gv.init for name, gv in self.module.globals.items()
        }
        self.runtime = runtime
        self.max_steps = max_steps or _DEFAULT_MAX_STEPS
        self.steps = 0
        self.output: List[str] = []
        self.retval: object = None

    def run(self, entry: str = "main", args: Optional[List[object]] = None) -> object:
        cf = self.program.functions.get(entry)
        if cf is None:
            raise MiniCRuntimeError(f"no function named {entry!r}")
        return cf.call(self, list(args or []))

    def output_text(self) -> str:
        if not self.output:
            return ""
        return "\n".join(self.output) + "\n"


def create_executor(
    module: Module,
    runtime: Optional[RuntimeHooks] = None,
    observers=None,
    profiler=None,
    max_steps: Optional[int] = None,
    exec_backend: Optional[str] = None,
    obs_enabled: Optional[bool] = None,
):
    """Build an executor for ``module`` honouring the fallback rules.

    The compiled and codegen backends are used only when they can be
    *exactly* faithful: no profiler, and the observability context
    disabled (the interpreter tallies per-run instruction and intrinsic
    metrics that compiled execution does not reproduce).  Observers are
    honoured by codegen's profiled lowering as long as none wants call
    events; the closure backend takes none.  Everything else — including
    a module the compiler rejects — gets the tree-walking interpreter.
    """
    backend = resolve_exec_backend(exec_backend)
    ctx = obs.current()
    if backend != "interp":
        if observers and (
            backend != "codegen" or any(o.wants_calls for o in observers)
        ):
            ctx.count("exec.fallback.observers")
        elif profiler is not None:
            ctx.count("exec.fallback.profiler")
        else:
            if obs_enabled is None:
                obs_enabled = ctx.enabled
            if obs_enabled:
                ctx.count("exec.fallback.obs-enabled")
            elif backend == "codegen":
                # Imported lazily: codegen imports this module's helpers.
                from repro.interp.codegen import (
                    CodegenExecutor,
                    ProfiledCodegenExecutor,
                    compile_module_codegen,
                )

                try:
                    program = compile_module_codegen(
                        module, profiled=bool(observers)
                    )
                except CompileError:
                    ctx.count("exec.fallback.compile-error")
                else:
                    ctx.count("exec.backend.codegen")
                    if observers:
                        return ProfiledCodegenExecutor(
                            program,
                            runtime=runtime,
                            observers=observers,
                            max_steps=max_steps,
                        )
                    return CodegenExecutor(
                        program, runtime=runtime, max_steps=max_steps
                    )
            else:
                try:
                    executor = CompiledExecutor(
                        compile_module(module),
                        runtime=runtime,
                        max_steps=max_steps,
                    )
                except CompileError:
                    ctx.count("exec.fallback.compile-error")
                else:
                    ctx.count("exec.backend.compiled")
                    return executor
    ctx.count("exec.backend.interp")
    return Interpreter(
        module,
        runtime=runtime,
        observers=observers,
        profiler=profiler,
        max_steps=max_steps,
    )
