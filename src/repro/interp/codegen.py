"""Python-source codegen execution backend.

The tree-walking interpreter pays, for every executed instruction, a
``type()``-keyed dispatch, a ``Const``-vs-``Reg`` check per operand and
a dict lookup per register.  DCA's cost model is "one golden run plus
one run per testing schedule" (paper §IV-B), so the same instrumented
module executes many times.  This backend lowers every IR
:class:`~repro.ir.function.Function` once to **Python source text** and
hands it to CPython's own compiler, so replay executes plain bytecode:

* registers become function locals (``LOAD_FAST``/``STORE_FAST``; no
  frame list, no slot indirection).  A read of a never-written register
  surfaces as ``UnboundLocalError`` and is mapped back to the
  interpreter's exact ``read of undefined register %r`` fault;
* constants are baked into the source as literals;
* ``BinOp`` lowers to the native operator expression per op/result type
  (``+``/``-``/``*``/comparisons inline; ``/``, ``%``, ``==``/``!=``
  via the shared C-semantics helpers);
* basic blocks dispatch through a ``while True`` / ``elif`` ladder on an
  integer block id, with every single-predecessor block inlined at its
  use site — jump targets extend the straight-line superblock and branch
  targets nest under the branch's ``if``/``else`` arm, so a typical loop
  iteration runs header + body with one dispatch hop (step accounting
  still charged per source block, exactly like the interpreter);
* fault paths keep the interpreter's messages, line numbers and operand
  evaluation order; step accounting charges ``len(block.instrs)`` at
  block entry and checks ``max_steps`` before the body runs.

Compilation is memoized per :class:`Module` object, and the compiled
code object is persisted on disk keyed by :func:`module_digest` (the
printed module plus every instruction's source line, which fault
messages embed), so cold corpus programs skip even the source
generation + ``compile()`` cost.  Artifacts carry a format version,
the running interpreter's bytecode magic and a payload checksum; any
mismatch or corruption silently falls back to a fresh compile (never to
wrong results).

A second, *profiled* lowering of the same module serves observed
runs (the dependence profile, the cost profile): every
global/field/element access reports the interpreter's location tuple
and the pristine ``Instr`` (from the per-module site table ``_I``)
after its null/bounds checks and before the access, ``Call`` maintains
the executor's ``call_stack``, and loop enter/iteration/exit events are
computed statically per CFG edge from the natural-loop forest, exactly
as the interpreter's ``_loop_transition`` derives them from the
(previous, current) block pair; each event carries the step count, so
observers read the interpreter's ``steps`` there.  The profiled variant
has its own memo key and artifact file; the plain lowering is unchanged
by it.

Each ``rt_*`` intrinsic is one direct call of the runtime's method of
that name (see :data:`~repro.interp.interpreter.RT_INTRINSICS`), bound
once per function call, traced or not.  Without a runtime the bound
method is a stand-in raising the interpreter's fault after the
arguments are evaluated; an unknown intrinsic is a :class:`CompileError`,
so the interpreter fallback raises its own fault.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import os
import re
import tempfile
from collections import OrderedDict
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

import repro.obs as obs
from repro.analysis.loops import build_loop_forest
from repro.interp.events import LoopCtx
from repro.interp.interpreter import (
    _DEFAULT_MAX_STEPS,
    RT_INTRINSICS,
    _trunc_div,
    Interpreter,
    counted_run,
)
from repro.interp.values import (
    EntryError,
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
    Reg,
    Ret,
    SetField,
    SetIndex,
    StoreGlobal,
    UnOp,
)
from repro.ir.printer import format_module
from repro.lang.builtins import BUILTINS
from repro.lang.types import FloatType
from repro.settings import SETTINGS, resolve

__all__ = [
    "CODEGEN_CACHE_ENV",
    "CodegenExecutor",
    "CodegenProgram",
    "CompileError",
    "ProfiledCodegenExecutor",
    "codegen_source",
    "codegen_stats",
    "compile_module_codegen",
    "module_digest",
    "reset_codegen_stats",
]

#: Directory override for persisted codegen artifacts.  When unset, the
#: artifact store lives under ``<REPRO_CACHE_DIR>/codegen``; when
#: neither is set, artifacts are not persisted.
CODEGEN_CACHE_ENV = SETTINGS["codegen_cache_dir"].env

#: Bumped whenever the lowering or artifact layout changes shape; stale
#: artifacts then miss on the header check and are recompiled.  (2: loop
#: events carry the step count; 3: intrinsics call the runtime's ``rt_*``
#: methods.)
_ARTIFACT_VERSION = 3
_ARTIFACT_MAGIC = b"RPCG"
#: Profiled-variant artifacts: a different magic, so neither variant
#: ever loads the other's code, and the module digest in the header, so
#: an artifact of another module never runs against this site table.
_PROFILED_MAGIC = b"RPCP"


class CompileError(Exception):
    """Raised when a module cannot be lowered.

    Callers treat this as "use the interpreter instead" — compilation is
    an optimization, never a semantic requirement.
    """


def _no_runtime_method(name: str) -> Callable:
    def missing(*_args) -> None:
        raise MiniCRuntimeError(f"intrinsic {name!r} executed without a runtime")

    return missing


#: Stands in for a missing runtime: each ``rt_*`` method raises the
#: interpreter's fault once the call's arguments are evaluated.
_NO_RUNTIME = SimpleNamespace(
    **{name: _no_runtime_method(name) for name in RT_INTRINSICS}
)

_ref_eq = Interpreter._ref_eq


def _fdiv(a: object, b: object) -> object:
    if b == 0:
        raise MiniCRuntimeError("float division by zero")
    return a / b


#: Plain-int compile/disk counters, readable even when the obs context
#: is disabled (the codegen backend only runs with obs disabled, so the
#: CI cold->warm smoke gates on these).
_STATS = {
    "compiles": 0,
    "memo_hits": 0,
    "disk_hits": 0,
    "disk_misses": 0,
    "errors": 0,
}


def codegen_stats() -> Dict[str, int]:
    """Snapshot of process-lifetime codegen compile/disk-cache counters."""
    return dict(_STATS)


def reset_codegen_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0


def _count(stat: str, counter: str) -> None:
    _STATS[stat] += 1
    obs.current().count(counter)


def _ulbe_reg_name(exc: UnboundLocalError) -> Optional[str]:
    """Extract the local variable name from a pre-3.11 UnboundLocalError."""
    msg = str(exc)
    i = msg.find("'")
    j = msg.find("'", i + 1)
    if i < 0 or j <= i:
        return None
    return msg[i + 1 : j]


_SAN_RE = re.compile(r"[^0-9a-zA-Z_]")


def _san(name: str) -> str:
    return _SAN_RE.sub("_", name)


def module_digest(module: Module) -> str:
    """The codegen artifact key: the sha256 of the module's printed form
    plus every instruction's source line, which the printed form omits
    but generated fault messages embed.
    """
    digest = hashlib.sha256(format_module(module).encode("utf-8"))
    for func in module.functions.values():
        for block in func.blocks.values():
            digest.update(repr([i.line for i in block.instrs]).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Source emission
# ---------------------------------------------------------------------------

#: BinOps lowered to a native infix expression (operand semantics match
#: the interpreter's direct ``a < b`` etc.).
_INLINE_BIN = {"+", "-", "*", "<", "<=", ">", ">="}


def _alloc_tables(module: Module):
    """Deterministic walk collecting NewStruct/NewArray runtime constants.

    The generated code references struct defs and element types by
    occurrence index (``_SD[k]`` / ``_ET[k]``).  Both the emitter and the
    namespace builder run this same walk, so artifacts loaded from disk
    rebind against a freshly-walked table without re-running codegen.
    """
    sd: List[object] = []
    et: List[object] = []
    sd_idx: Dict[int, int] = {}
    et_idx: Dict[int, int] = {}
    for func in module.functions.values():
        for bname in func.block_order:
            for ins in func.blocks[bname].instrs:
                t = type(ins)
                if t is NewStruct:
                    sd_idx[id(ins)] = len(sd)
                    sd.append(module.structs[ins.struct_name])
                elif t is NewArray:
                    et_idx[id(ins)] = len(et)
                    et.append(ins.elem_type)
    return sd, et, sd_idx, et_idx


#: Instructions whose execution the profiled lowering reports to
#: observers: the six memory accesses, and ``Call`` (call-stack entries).
_SITE_TYPES = (
    GetField, SetField, GetIndex, SetIndex, LoadGlobal, StoreGlobal, Call,
)


def _site_table(module: Module):
    """Deterministic walk collecting the profiled variant's event sites.

    Generated code passes observers the pristine instruction object as
    ``_I[k]``; like :func:`_alloc_tables`, the walk runs at emission and
    again at load, so disk artifacts rebind to this module's objects.
    """
    sites: List[object] = []
    site_idx: Dict[int, int] = {}
    for func in module.functions.values():
        for bname in func.block_order:
            for ins in func.blocks[bname].instrs:
                if type(ins) in _SITE_TYPES:
                    site_idx[id(ins)] = len(sites)
                    sites.append(ins)
    return sites, site_idx


def _lit(v: object) -> str:
    if v is None:
        return "None"
    if v is True:
        return "True"
    if v is False:
        return "False"
    t = type(v)
    if t is int:
        return repr(v)
    if t is float:
        if v != v:
            return '_nan'
        if v == float("inf"):
            return '_inf'
        if v == float("-inf"):
            return '_ninf'
        return repr(v)
    if t is str:
        return repr(v)
    raise CompileError(f"unsupported constant {v!r}")


class _FuncEmitter:
    """Lowers one IR function to Python source lines."""

    def __init__(self, index: int, func, module: Module, gen_names: Dict[str, str],
                 sd_idx: Dict[int, int], et_idx: Dict[int, int],
                 site_idx: Optional[Dict[int, int]] = None):
        self.index = index
        self.func = func
        self.module = module
        self.gen_names = gen_names
        self.sd_idx = sd_idx
        self.et_idx = et_idx
        self.gen_name = gen_names[func.name]
        self.lines: List[str] = []
        self._regs: Dict[Reg, str] = {}
        # Prologue feature flags, filled during a pre-scan.
        self.uses_globals = False
        self.uses_heap = False
        self.uses_print = False
        #: Names of the ``rt_*`` intrinsics this function calls.
        self.intrinsics: set = set()
        #: Profiled lowering: event-site indices into ``_I`` (None for the
        #: plain lowering).
        self.site_idx = site_idx
        self.profiled = site_idx is not None
        self.uses_mem = False
        self.uses_calls = False
        if self.profiled:
            forest = build_loop_forest(func)
            self.chains = {
                name: tuple(l.label for l in forest.loop_chain(name))
                for name in func.block_order
            }
            self.headers = {
                loop.header: loop.label for loop in forest.loops.values()
            }

    # -- small helpers ------------------------------------------------------

    def reg(self, r: Reg) -> str:
        name = self._regs.get(r)
        if name is None:
            name = f"r_{len(self._regs)}"
            self._regs[r] = name
        return name

    def ex(self, op) -> str:
        if type(op) is Const:
            return _lit(op.value)
        return self.reg(op)

    def w(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def bare_reads(self, indent: int, operands) -> None:
        """Force undefined-register checks in interpreter operand order."""
        for op in operands:
            if type(op) is not Const:
                self.w(indent, self.reg(op))

    # -- pre-scan -----------------------------------------------------------

    def _scan(self) -> None:
        for bname in self.func.block_order:
            for ins in self.func.blocks[bname].instrs:
                t = type(ins)
                if t in (LoadGlobal, StoreGlobal):
                    self.uses_globals = True
                elif t in (NewStruct, NewArray):
                    self.uses_heap = True
                elif t is CallBuiltin and ins.func == "print":
                    self.uses_print = True
                elif t is Intrinsic:
                    if ins.func not in RT_INTRINSICS:
                        raise CompileError(
                            f"unknown DCA intrinsic {ins.func!r}"
                        )
                    self.intrinsics.add(ins.func)
                if t in _SITE_TYPES:
                    if t is Call:
                        self.uses_calls = True
                    else:
                        self.uses_mem = True

    # -- block layout -------------------------------------------------------

    #: Branch-arm inlining stops nesting past this depth; deeper blocks
    #: become dispatch heads so the generated source keeps a sane indent.
    _MAX_NEST = 30

    def _plan(self) -> None:
        """Partition blocks into dispatch *heads* and inlined blocks.

        A block with exactly one predecessor is emitted inline at its
        use site: jump targets extend the straight-line superblock, and
        branch targets nest under the branch's ``if``/``else`` arm (so a
        loop iteration runs header + body without a dispatch round
        trip).  Everything else — the entry, join points, loop headers —
        gets an integer id in the ``while``/``elif`` dispatch ladder.
        """
        func = self.func
        order = func.block_order
        preds: Dict[str, int] = {n: 0 for n in order}
        upred: Dict[str, str] = {}
        for name in order:
            instrs = func.blocks[name].instrs
            if not instrs:
                raise CompileError(f"empty block {name!r} in {func.name}")
            term = instrs[-1]
            t = type(term)
            if t is Jump:
                targets = (term.target,)
            elif t is Branch:
                targets = (term.true_target, term.false_target)
            else:
                targets = ()
            for tg in targets:
                preds[tg] = preds.get(tg, 0) + 1
                upred[tg] = name
        entry = func.entry
        head_set = {entry} | {
            n for n in order
            if preds[n] >= 2 or (preds[n] == 1 and upred.get(n) == n)
        }

        # Depth-cap pass: blocks that would nest too deeply under branch
        # arms are promoted to heads.
        def child_targets(name: str):
            term = func.blocks[name].instrs[-1]
            t = type(term)
            if t is Jump:
                return ((term.target, 0),)
            if t is Branch:
                return ((term.true_target, 1), (term.false_target, 1))
            return ()

        forced: set = set()

        def dfs(name: str, depth: int) -> None:
            for child, extra in child_targets(name):
                if child in head_set or child in forced:
                    continue
                nd = depth + extra
                if nd > self._MAX_NEST:
                    forced.add(child)
                else:
                    dfs(child, nd)

        processed: set = set()
        work = [n for n in order if n in head_set]
        while work:
            h = work.pop(0)
            if h in processed:
                continue
            processed.add(h)
            dfs(h, 0)
            for n in order:
                if n in forced and n not in processed and n not in work:
                    work.append(n)
        head_set |= forced

        self.heads = [entry] + [n for n in order if n != entry and n in head_set]
        self.head_index = {n: i for i, n in enumerate(self.heads)}
        self.inline = {n for n in order if n not in head_set}
        # The dispatch loop (and its `continue`s) is needed exactly when
        # some terminator targets a head.
        self.multi = len(self.heads) > 1 or preds.get(entry, 0) > 0

    # -- emission -----------------------------------------------------------

    def emit(self) -> List[str]:
        self._scan()
        func = self.func
        params = [reg for reg, _t in func.params]
        if len(set(params)) != len(params):
            raise CompileError(
                f"duplicate parameter register in {func.name}"
            )
        sig = ", ".join(["_state"] + [self.reg(p) for p in params])
        self._plan()
        multi = self.multi

        body: List[str] = []
        saved = self.lines
        self.lines = body
        # Indents: try-body sits at 2; in multi-block mode the dispatch
        # ladder adds a while (2) and an if/elif header (3), so block
        # code lands at 4.
        base = 4 if multi else 2
        for i, head in enumerate(self.heads):
            if multi:
                kw = "if" if i == 0 else "elif"
                self.w(3, f"{kw} _b == {i}:")
            self._emit_block(base, head)
        self.lines = saved

        w = self.w
        w(0, f"def {self.gen_name}({sig}):")
        if self.uses_globals:
            w(1, "_g = _state.globals")
        if self.uses_heap:
            w(1, "_heap = _state.heap")
        if self.uses_print:
            w(1, "_out_append = _state.output.append")
        if self.intrinsics:
            w(1, "_rt = _state.runtime")
            w(1, "if _rt is None:")
            w(2, "_rt = _NO_RUNTIME")
            for name in sorted(self.intrinsics):
                w(1, f"_{name} = _rt.{name}")
        w(1, "_max = _state.max_steps")
        w(1, "_steps = _state.steps")
        if self.profiled:
            self._emit_event_prologue()
        w(1, "try:")
        if multi:
            w(2, "_b = 0")
            w(2, "while True:")
        self.lines.extend(body)
        w(1, "except UnboundLocalError as _exc:")
        w(2, "_n = getattr(_exc, 'name', None)")
        w(2, "if _n is None:")
        w(3, "_n = _ulbe(_exc)")
        w(2, f"_rg = _REGS_{self.index}.get(_n)")
        w(2, "if _rg is None:")
        w(3, "raise")
        w(2, "raise _MiniC('read of undefined register ' + _rg) from None")
        w(1, "finally:")
        w(2, "if _steps > _state.steps:")
        w(3, "_state.steps = _steps")
        w(0, "")
        regmap = {name: str(r) for r, name in self._regs.items()}
        self.lines.insert(0, f"_REGS_{self.index} = {regmap!r}")
        return self.lines

    def _emit_event_prologue(self) -> None:
        """Bind the executor's event entry points as locals, and enter
        the entry block's loops (the interpreter's transition from no
        previous block)."""
        w = self.w
        if self.uses_mem:
            w(1, "_rd = _state._on_read")
            w(1, "_wr = _state._on_write")
        if self.uses_calls:
            w(1, "_cs = _state.call_stack")
        if any(self.chains.values()):
            w(1, "_le = _state._loop_enter")
            w(1, "_li = _state._loop_iter")
            w(1, "_lx = _state._loop_exit")
        self._transition(1, None, self.func.entry)

    def _transition(self, ind: int, prev: Optional[str], cur: str) -> None:
        """Loop events of the CFG edge ``prev -> cur``, mirroring
        :meth:`Interpreter._loop_transition`, which depends on nothing
        but that block pair."""
        prev_chain = self.chains.get(prev, ()) if prev else ()
        cur_chain = self.chains[cur]
        if prev_chain == cur_chain:
            if cur_chain and prev is not None \
                    and self.headers.get(cur) == cur_chain[-1]:
                self.w(ind, "_li(_steps)")
            return
        common = 0
        limit = min(len(prev_chain), len(cur_chain))
        while common < limit and prev_chain[common] == cur_chain[common]:
            common += 1
        if len(prev_chain) > common:
            self.w(ind, f"_lx({len(prev_chain) - common}, _steps)")
        for label in cur_chain[common:]:
            self.w(ind, f"_le({label!r}, _steps)")

    def _emit_block(self, ind: int, bname: str) -> None:
        instrs = self.func.blocks[bname].instrs
        w = self.w
        w(ind, f"_steps += {len(instrs)}")
        w(ind, "if _steps > _max:")
        w(ind + 1, "raise _MiniC('step limit exceeded')")
        for ins in instrs[:-1]:
            self._emit_instr(ind, ins)
        self._emit_terminator(ind, bname, instrs[-1])

    def _goto(self, ind: int, source: str, target: str) -> None:
        """Transfer control to ``target``: inline its code when it has a
        single predecessor, otherwise re-enter the dispatch loop."""
        if self.profiled:
            self._transition(ind, source, target)
        if target in self.inline:
            self._emit_block(ind, target)
        else:
            self.w(ind, f"_b = {self.head_index[target]}")
            self.w(ind, "continue")

    def _emit_terminator(self, ind: int, bname: str, term) -> None:
        t = type(term)
        w = self.w
        if t is Jump:
            self._goto(ind, bname, term.target)
            return
        if t is Branch:
            cond = term.cond
            if type(cond) is Const:
                try:
                    taken = (
                        term.true_target if truthy(cond.value)
                        else term.false_target
                    )
                except MiniCRuntimeError:
                    # The constant is not usable as a condition; raise the
                    # interpreter's message at run time.
                    w(ind, f"_truthy({_lit(cond.value)})")
                    w(ind, "raise _MiniC('unreachable')")
                else:
                    self._goto(ind, bname, taken)
                return
            c = self.reg(cond)
            # The bare `is True` / `is not False` identity tests keep the
            # hot boolean case off the generic _truthy path while the
            # first read of `c` still trips the undefined-register check
            # and _truthy still raises on invalid condition types, both in
            # interpreter order.
            w(ind, f"if {c} is True or ({c} is not False and _truthy({c})):")
            self._goto(ind + 1, bname, term.true_target)
            w(ind, "else:")
            self._goto(ind + 1, bname, term.false_target)
            return
        if t is Ret:
            value = term.value
            if value is None:
                v = "None"
            elif type(value) is Const:
                v = _lit(value.value)
            else:
                v = self.reg(value)
            w(ind, f"_state.retval = {v}")
            w(ind, f"return {v}")
            return
        # Mirror the interpreter: a malformed last instruction faults at
        # run time without executing it.
        w(ind, f"raise _MiniC({('bad terminator ' + str(term))!r})")

    # -- instructions -------------------------------------------------------

    def _emit_instr(self, ind: int, ins) -> None:
        t = type(ins)
        w = self.w
        if t is Mov:
            w(ind, f"{self.reg(ins.dest)} = {self.ex(ins.src)}")
        elif t is BinOp:
            self._emit_binop(ind, ins)
        elif t is UnOp:
            self._emit_unop(ind, ins)
        elif t is GetIndex:
            self._emit_getindex(ind, ins)
        elif t is SetIndex:
            self._emit_setindex(ind, ins)
        elif t is GetField:
            self._emit_getfield(ind, ins)
        elif t is SetField:
            self._emit_setfield(ind, ins)
        elif t is LoadGlobal:
            self._event(ind, "_rd", f"('g', {ins.name!r})", ins)
            w(ind, f"{self.reg(ins.dest)} = _g[{ins.name!r}]")
        elif t is StoreGlobal:
            self._event(ind, "_wr", f"('g', {ins.name!r})", ins)
            w(ind, f"_g[{ins.name!r}] = {self.ex(ins.src)}")
        elif t is ArrayLen:
            a = self.ex(ins.arr)
            w(ind, f"if {a} is None:")
            w(ind + 1, f"raise _MiniC({f'len(null) (line {ins.line})'!r})")
            w(ind, f"{self.reg(ins.dest)} = len({a}.data)")
        elif t is NewStruct:
            k = self.sd_idx[id(ins)]
            w(ind, f"{self.reg(ins.dest)} = _heap.new_struct(_SD[{k}])")
        elif t is NewArray:
            k = self.et_idx[id(ins)]
            w(ind, f"{self.reg(ins.dest)} = "
                   f"_heap.new_array(_ET[{k}], {self.ex(ins.length)})")
        elif t is Call:
            self._emit_call(ind, ins)
        elif t is CallBuiltin:
            self._emit_callbuiltin(ind, ins)
        elif t is Intrinsic:
            self._emit_intrinsic(ind, ins)
        else:
            raise CompileError(f"uncompilable instruction {ins}")

    def _emit_binop(self, ind: int, ins: BinOp) -> None:
        d = self.reg(ins.dest)
        l = self.ex(ins.lhs)
        r = self.ex(ins.rhs)
        op = ins.op
        if op in _INLINE_BIN:
            self.w(ind, f"{d} = {l} {op} {r}")
        elif op == "==":
            self.w(ind, f"{d} = _refeq({l}, {r})")
        elif op == "!=":
            self.w(ind, f"{d} = not _refeq({l}, {r})")
        elif op == "%":
            self.w(ind, f"{d} = _cmod({l}, {r})")
        elif op == "/":
            fn = "_fdiv" if isinstance(ins.result_type, FloatType) else "_tdiv"
            self.w(ind, f"{d} = {fn}({l}, {r})")
        else:
            raise CompileError(f"unknown binary operator {op}")

    def _emit_unop(self, ind: int, ins: UnOp) -> None:
        d = self.reg(ins.dest)
        e = self.ex(ins.operand)
        if ins.op == "-":
            self.w(ind, f"{d} = -({e})")
        elif ins.op == "!":
            self.w(ind, f"{d} = not _truthy({e})")
        elif ins.op == "itof":
            self.w(ind, f"{d} = float({e})")
        else:
            raise CompileError(f"unknown unary operator {ins.op}")

    def _event(self, ind: int, fn: str, loc: str, ins) -> None:
        """Profiled lowering: report an access of ``loc`` by ``ins``."""
        if self.profiled:
            self.w(ind, f"{fn}({loc}, _I[{self.site_idx[id(ins)]}])")

    def _emit_getfield(self, ind: int, ins: GetField) -> None:
        msg = f"null dereference reading .{ins.field} (line {ins.line})"
        if type(ins.obj) is Const:
            # The only struct-typed constant is null: always a fault.
            self.w(ind, f"raise _MiniC({msg!r})")
            return
        o = self.reg(ins.obj)
        self.w(ind, f"if {o} is None:")
        self.w(ind + 1, f"raise _MiniC({msg!r})")
        self._event(ind, "_rd", f"('f', {o}.oid, {ins.field!r})", ins)
        self.w(ind, f"{self.reg(ins.dest)} = {o}.fields[{ins.field!r}]")

    def _emit_setfield(self, ind: int, ins: SetField) -> None:
        msg = f"null dereference writing .{ins.field} (line {ins.line})"
        if type(ins.obj) is Const:
            self.w(ind, f"raise _MiniC({msg!r})")
            return
        o = self.reg(ins.obj)
        self.w(ind, f"if {o} is None:")
        self.w(ind + 1, f"raise _MiniC({msg!r})")
        self._event(ind, "_wr", f"('f', {o}.oid, {ins.field!r})", ins)
        # Value is read after the null check (assignment RHS first), like
        # the interpreter.
        self.w(ind, f"{o}.fields[{ins.field!r}] = {self.ex(ins.value)}")

    def _emit_getindex(self, ind: int, ins: GetIndex) -> None:
        line = ins.line
        nullmsg = f"null array read (line {line})"
        i = self.ex(ins.index)
        if type(ins.arr) is Const:
            # Constant null array: the index operand is still read first.
            self.bare_reads(ind, (ins.index,))
            self.w(ind, f"raise _MiniC({nullmsg!r})")
            return
        a = self.reg(ins.arr)
        self.w(ind, f"if {a} is None:")
        # The interpreter reads the index before the null check; fire a
        # pending undefined-register fault first on this cold path.
        self.bare_reads(ind + 1, (ins.index,))
        self.w(ind + 1, f"raise _MiniC({nullmsg!r})")
        self.w(ind, f"_t0 = {a}.data")
        self.w(ind, f"if 0 <= {i} < len(_t0):")
        self._event(ind + 1, "_rd", f"('a', {a}.oid, {i})", ins)
        self.w(ind + 1, f"{self.reg(ins.dest)} = _t0[{i}]")
        self.w(ind, "else:")
        self.w(
            ind + 1,
            "raise _MiniC(f'index {" + i + "} out of bounds "
            "[0,{len(_t0)}) (line " + str(line) + ")')",
        )

    def _emit_setindex(self, ind: int, ins: SetIndex) -> None:
        line = ins.line
        nullmsg = f"null array write (line {line})"
        i = self.ex(ins.index)
        if type(ins.arr) is Const:
            self.bare_reads(ind, (ins.index,))
            self.w(ind, f"raise _MiniC({nullmsg!r})")
            return
        a = self.reg(ins.arr)
        self.w(ind, f"if {a} is None:")
        self.bare_reads(ind + 1, (ins.index,))
        self.w(ind + 1, f"raise _MiniC({nullmsg!r})")
        self.w(ind, f"_t0 = {a}.data")
        self.w(ind, f"if 0 <= {i} < len(_t0):")
        self._event(ind + 1, "_wr", f"('a', {a}.oid, {i})", ins)
        # Value is read after the bounds check (assignment RHS before the
        # subscript store), like the interpreter.
        self.w(ind + 1, f"_t0[{i}] = {self.ex(ins.value)}")
        self.w(ind, "else:")
        self.w(
            ind + 1,
            "raise _MiniC(f'index {" + i + "} out of bounds "
            "[0,{len(_t0)}) (line " + str(line) + ")')",
        )

    def _emit_call(self, ind: int, ins: Call) -> None:
        callee = self.module.functions.get(ins.func)
        if callee is None:
            raise CompileError(f"call to unknown function {ins.func!r}")
        args = [self.ex(a) for a in ins.args]
        if len(ins.args) != len(callee.params):
            # Statically-known arity mismatch: args are still read first.
            self.bare_reads(ind, ins.args)
            msg = (
                f"{ins.func} expects {len(callee.params)} args, "
                f"got {len(ins.args)}"
            )
            self.w(ind, f"raise _MiniC({msg!r})")
            return
        call = f"{self.gen_names[ins.func]}({', '.join(['_state'] + args)})"
        if ins.dest is not None:
            call = f"{self.reg(ins.dest)} = {call}"
        self.w(ind, "_state.steps = _steps")
        if self.profiled:
            # Interpreter._exec_call: the call is on the attribution
            # stack while the callee runs, popped even when it faults.
            self.w(ind, f"_cs.append(_I[{self.site_idx[id(ins)]}])")
            self.w(ind, "_state.call_stack_version += 1")
            self.w(ind, "try:")
            self.w(ind + 1, call)
            self.w(ind, "finally:")
            self.w(ind + 1, "_cs.pop()")
            self.w(ind + 1, "_state.call_stack_version += 1")
        else:
            self.w(ind, call)
        self.w(ind, "_steps = _state.steps")

    def _emit_callbuiltin(self, ind: int, ins: CallBuiltin) -> None:
        args = [self.ex(a) for a in ins.args]
        if ins.func == "print":
            if not args:
                self.w(ind, '_out_append("")')
            elif len(args) == 1:
                self.w(ind, f"_out_append(_fmt({args[0]}))")
            else:
                tup = ", ".join(args)
                self.w(ind, f"_out_append(' '.join(map(_fmt, ({tup}))))")
            return
        builtin = BUILTINS.get(ins.func)
        if builtin is None or builtin.impl is None:
            raise CompileError(f"builtin {ins.func!r} has no host implementation")
        call = f"_bi_{_san(ins.func)}({', '.join(args)})"
        self.w(ind, "try:")
        if ins.dest is not None:
            self.w(ind + 1, f"{self.reg(ins.dest)} = {call}")
        else:
            self.w(ind + 1, call)
        self.w(ind, "except (ValueError, OverflowError, ZeroDivisionError) as _be:")
        self.w(ind + 1, f"raise _MiniC({ins.func + ': '!r} + str(_be)) from None")

    def _emit_intrinsic(self, ind: int, ins: Intrinsic) -> None:
        args = ", ".join(["_state"] + [self.ex(a) for a in ins.args])
        call = f"_{ins.func}({args})"
        if ins.dest is not None:
            self.w(ind, f"{self.reg(ins.dest)} = {call}")
        else:
            self.w(ind, call)


def codegen_source(module: Module, profiled: bool = False) -> str:
    """Lower ``module`` to the Python source text the backend compiles
    (``profiled`` selects the observer-event variant).

    Exposed for tests and debugging; :func:`compile_module_codegen` is
    the cached entry point.
    """
    _sd, _et, sd_idx, et_idx = _alloc_tables(module)
    site_idx = _site_table(module)[1] if profiled else None
    gen_names = {
        name: f"_fn_{i}_{_san(name)}"
        for i, name in enumerate(module.functions)
    }
    lines: List[str] = ["# generated by repro.interp.codegen", ""]
    for i, (name, func) in enumerate(module.functions.items()):
        emitter = _FuncEmitter(
            i, func, module, gen_names, sd_idx, et_idx, site_idx
        )
        lines.extend(emitter.emit())
    return "\n".join(lines) + "\n"


def _cmod_fused(a, b):
    """C-style remainder, semantically identical to the interpreter's
    ``_c_mod`` but flattened into one frame (``%`` is hot enough in the
    PLDS kernels that the nested ``_trunc_div`` call shows in profiles).
    """
    if b == 0:
        raise MiniCRuntimeError("integer division by zero")
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return a - q * b


def _build_namespace(module: Module, profiled: bool) -> Dict[str, object]:
    """Runtime bindings the generated code resolves as globals."""
    sd, et, _sd_idx, _et_idx = _alloc_tables(module)
    ns: Dict[str, object] = {
        "_MiniC": MiniCRuntimeError,
        "_truthy": truthy,
        "_fmt": format_value,
        "_refeq": _ref_eq,
        "_cmod": _cmod_fused,
        "_tdiv": _trunc_div,
        "_fdiv": _fdiv,
        "_ulbe": _ulbe_reg_name,
        "_NO_RUNTIME": _NO_RUNTIME,
        "_SD": sd,
        "_ET": et,
        "_nan": float("nan"),
        "_inf": float("inf"),
        "_ninf": float("-inf"),
    }
    for name, builtin in BUILTINS.items():
        if builtin.impl is not None:
            ns[f"_bi_{_san(name)}"] = builtin.impl
    if profiled:
        ns["_I"] = _site_table(module)[0]
    return ns


# ---------------------------------------------------------------------------
# Disk artifact store
# ---------------------------------------------------------------------------


def _artifact_path(cache_dir: str, digest: str, profiled: bool = False) -> str:
    suffix = ".prof.rpcg" if profiled else ".rpcg"
    return os.path.join(cache_dir, digest + suffix)


def _artifact_prefix(digest: str, profiled: bool) -> bytes:
    """Everything in the header before the payload checksum."""
    magic = importlib.util.MAGIC_NUMBER
    prefix = (
        (_PROFILED_MAGIC if profiled else _ARTIFACT_MAGIC)
        + bytes([_ARTIFACT_VERSION, len(magic)])
        + magic
    )
    if profiled:
        prefix += bytes.fromhex(digest)
    return prefix


def _artifact_header(payload: bytes, digest: str, profiled: bool = False) -> bytes:
    return _artifact_prefix(digest, profiled) + hashlib.sha256(payload).digest()


def _load_artifact(cache_dir: str, digest: str, profiled: bool = False):
    """Load a persisted code object, or None on any miss/corruption."""
    try:
        with open(_artifact_path(cache_dir, digest, profiled), "rb") as fh:
            blob = fh.read()
    except OSError:
        return None
    header = _artifact_prefix(digest, profiled)
    if len(blob) < len(header) + 32 or not blob.startswith(header):
        return None
    checksum = blob[len(header) : len(header) + 32]
    payload = blob[len(header) + 32 :]
    if hashlib.sha256(payload).digest() != checksum:
        return None
    try:
        code = marshal.loads(payload)
    except (ValueError, EOFError, TypeError):
        return None
    if not isinstance(code, type(compile("0", "<s>", "eval"))):
        return None
    return code


def _store_artifact(cache_dir: str, digest: str, code, profiled: bool = False) -> None:
    """Best-effort atomic write; storage failures never fail the run."""
    try:
        payload = marshal.dumps(code)
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_artifact_header(payload, digest, profiled) + payload)
            os.replace(tmp, _artifact_path(cache_dir, digest, profiled))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except (OSError, ValueError):
        pass


# ---------------------------------------------------------------------------
# Module compilation (memoized per Module object, persisted per digest)
# ---------------------------------------------------------------------------


class CodegenFunction:
    """One lowered function: a plain Python callable plus its arity."""

    __slots__ = ("name", "nparams", "pyfunc")

    def __init__(self, name: str, nparams: int, pyfunc: Callable):
        self.name = name
        self.nparams = nparams
        self.pyfunc = pyfunc


class CodegenProgram:
    """A codegen-compiled :class:`~repro.ir.function.Module`."""

    __slots__ = ("module", "functions", "profiled")

    def __init__(self, module: Module, profiled: bool = False):
        self.module = module
        self.functions: Dict[str, CodegenFunction] = {}
        #: Whether this is the observer-event lowering.
        self.profiled = profiled


#: Bounded LRU of compiled programs keyed by ``(id(module), profiled)``
#: (Module is an unhashable dataclass).  Entries hold the module
#: strongly, and the ``entry[0] is module`` check guards against
#: ``id()`` reuse after eviction.
_MODULE_CACHE: "OrderedDict[Tuple[int, bool], Tuple[Module, CodegenProgram]]" = (
    OrderedDict()
)
_MODULE_CACHE_MAX = 64


def compile_module_codegen(
    module: Module, cache_dir: Optional[str] = None, profiled: bool = False
) -> CodegenProgram:
    """Lower ``module`` to Python bytecode, once; results are cached.

    ``profiled`` selects the observer-event lowering run by
    :class:`ProfiledCodegenExecutor`.  In-process results are memoized
    per module object and variant; across processes the compiled code
    object is persisted under the module digest in ``cache_dir``, which
    defaults to ``REPRO_CODEGEN_CACHE_DIR``, then
    ``<REPRO_CACHE_DIR>/codegen`` (pass ``cache_dir=""`` to disable
    persistence).  Raises :class:`CompileError` when the module cannot
    be lowered — callers fall back to the interpreter.
    """
    key = (id(module), profiled)
    entry = _MODULE_CACHE.get(key)
    if entry is not None and entry[0] is module:
        _MODULE_CACHE.move_to_end(key)
        _count("memo_hits", "codegen.compile.memo_hits")
        return entry[1]

    try:
        program = _compile_uncached(module, cache_dir, profiled)
    except CompileError:
        _count("errors", "codegen.compile.errors")
        raise
    except Exception as exc:
        _count("errors", "codegen.compile.errors")
        raise CompileError(f"codegen compilation failed: {exc!r}") from exc

    _MODULE_CACHE[key] = (module, program)
    while len(_MODULE_CACHE) > _MODULE_CACHE_MAX:
        _MODULE_CACHE.popitem(last=False)
    return program


def _compile_uncached(
    module: Module, cache_dir: Optional[str], profiled: bool
) -> CodegenProgram:
    directory = resolve("codegen_cache_dir", cache_dir)
    code = None
    digest = None
    if directory is not None:
        digest = module_digest(module)
        code = _load_artifact(directory, digest, profiled)
        if code is not None:
            _count("disk_hits", "codegen.disk_cache.hits")
        else:
            _count("disk_misses", "codegen.disk_cache.misses")
    if code is None:
        source = codegen_source(module, profiled)
        try:
            code = compile(source, "<repro-codegen>", "exec")
        except SyntaxError as exc:  # pragma: no cover - emitter bug guard
            raise CompileError(f"generated source failed to compile: {exc}")
        _count("compiles", "codegen.compile.compiles")
        if directory is not None:
            _store_artifact(directory, digest, code, profiled)

    ns = _build_namespace(module, profiled)
    exec(code, ns)
    program = CodegenProgram(module, profiled)
    for i, (name, func) in enumerate(module.functions.items()):
        pyfunc = ns.get(f"_fn_{i}_{_san(name)}")
        if not callable(pyfunc):
            # A stale or foreign artifact that passed the checksum but
            # does not define this module's functions: recompile fresh.
            raise CompileError(f"artifact missing function {name!r}")
        program.functions[name] = CodegenFunction(name, len(func.params), pyfunc)
    return program


class CodegenExecutor:
    """One execution of a codegen-compiled program.

    Surface-compatible with
    :class:`~repro.interp.interpreter.Interpreter` for runtime-only
    runs: ``run``, ``steps``, ``globals``, ``heap``,
    ``output``/``output_text``, ``retval`` and ``module`` — everything
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
        runtime=None,
        max_steps: Optional[int] = None,
    ):
        if isinstance(program, Module):
            program = compile_module_codegen(program)
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
            raise EntryError(f"no function named {entry!r}")
        args = list(args or [])
        if len(args) != cf.nparams:
            raise EntryError(
                f"{entry} expects {cf.nparams} args, got {len(args)}"
            )
        return counted_run(self, cf.pyfunc, self, *args)

    def output_text(self) -> str:
        if not self.output:
            return ""
        return "\n".join(self.output) + "\n"


class ProfiledCodegenExecutor(CodegenExecutor):
    """One observed execution of the profiled codegen lowering.

    Publishes the interpreter's loop and memory events to observers
    and exposes the dynamic state they may read: ``steps``,
    ``loop_stack``, ``call_stack`` and ``call_stack_version``.  Loop
    invocation counters are per run, as in the interpreter.
    """

    __slots__ = (
        "observers",
        "loop_stack",
        "call_stack",
        "call_stack_version",
        "_invocations",
        "_loop_obs",
        "_on_read",
        "_on_write",
    )

    def __init__(
        self,
        program,
        runtime=None,
        observers=(),
        max_steps: Optional[int] = None,
    ):
        if isinstance(program, Module):
            program = compile_module_codegen(program, profiled=True)
        if not program.profiled:
            raise ValueError("ProfiledCodegenExecutor needs a profiled program")
        super().__init__(program, runtime=runtime, max_steps=max_steps)
        self.observers = list(observers)
        self.loop_stack: List[LoopCtx] = []
        self.call_stack: List[object] = []
        self.call_stack_version = 0
        self._invocations: Dict[str, int] = {}
        for o in self.observers:
            o.attach(self)
        self._loop_obs = [o for o in self.observers if o.wants_loops]
        mem_obs = [o for o in self.observers if o.wants_memory]
        self._on_read = _fan_out([o.on_read for o in mem_obs])
        self._on_write = _fan_out([o.on_write for o in mem_obs])

    # Each loop event carries the lowering's step count, so observers
    # read the interpreter's ``steps`` there.

    def _loop_enter(self, label: str, steps: int) -> None:
        self.steps = steps
        invocation = self._invocations.get(label, 0)
        self._invocations[label] = invocation + 1
        self.loop_stack.append(LoopCtx(label, invocation, 0))
        for o in self._loop_obs:
            o.on_loop_enter(label, invocation)

    def _loop_iter(self, steps: int) -> None:
        self.steps = steps
        ctx = self.loop_stack[-1]
        ctx.iteration += 1
        for o in self._loop_obs:
            o.on_loop_iteration(ctx.label, ctx.invocation, ctx.iteration)

    def _loop_exit(self, count: int, steps: int) -> None:
        self.steps = steps
        for _ in range(count):
            ctx = self.loop_stack.pop()
            for o in self._loop_obs:
                o.on_loop_exit(ctx.label, ctx.invocation)


def _fan_out(handlers: List[Callable]) -> Callable:
    """One callable invoking every handler; the sole handler itself when
    there is just one (the dependence profiler's hot path)."""
    if len(handlers) == 1:
        return handlers[0]

    def dispatch(loc, instr) -> None:
        for handler in handlers:
            handler(loc, instr)

    return dispatch
