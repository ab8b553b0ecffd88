"""Static reduction, induction and histogram recognition.

Classifies the loop-carried state of a loop:

* **scalar registers** carried across iterations — induction variables
  (``i = i + c``), pointer-chasing inductions (``p = p->next``; the idiom
  that defeats dependence analysis, paper Fig. 1b), simple reductions
  (``s = s + e`` / ``s = s * e`` / ``min``/``max`` builtins), conditional
  min/max reductions (``if (x < m) { m = x; }`` — the "complex reduction"
  class detected by IDIOMS), or unknown carried scalars;
* **histogram updates** — ``a[f(...)] = a[f(...)] + e`` read-modify-write
  pairs on the same array and index (IDIOMS' histogram class).

The baseline detectors consume these classifications with different
capability sets (see :mod:`repro.baselines`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.loops import Loop, function_analyses
from repro.ir.function import Function
from repro.ir.instructions import (
    BinOp,
    Call,
    CallBuiltin,
    Const,
    GetField,
    GetIndex,
    Mov,
    Operand,
    Reg,
    SetIndex,
)

__all__ = [
    "CARRIED_UNKNOWN",
    "COMPLEX_REDUCTIONS",
    "HistogramUpdate",
    "INDUCTION",
    "LoopIdioms",
    "POINTER_CHASE",
    "REDUCTION_ADD",
    "REDUCTION_MINMAX",
    "REDUCTION_MINMAX_COND",
    "REDUCTION_MUL",
    "SIMPLE_REDUCTIONS",
    "classify_loop",
    "conditional_blocks",
]

#: Scalar classifications.
INDUCTION = "induction"
POINTER_CHASE = "pointer-chase"
REDUCTION_ADD = "reduction-add"
REDUCTION_MUL = "reduction-mul"
REDUCTION_MINMAX = "reduction-minmax"
REDUCTION_MINMAX_COND = "reduction-minmax-cond"
CARRIED_UNKNOWN = "carried-unknown"

#: Classes the plain dependence-profiling baseline [8] can exploit.
SIMPLE_REDUCTIONS = frozenset({REDUCTION_ADD, REDUCTION_MUL, REDUCTION_MINMAX})
#: Classes IDIOMS additionally handles.
COMPLEX_REDUCTIONS = SIMPLE_REDUCTIONS | frozenset({REDUCTION_MINMAX_COND})


@dataclass
class HistogramUpdate:
    """A recognized ``a[idx] op= e`` read-modify-write."""

    array: Reg
    get_site: Tuple[str, int]
    set_site: Tuple[str, int]
    op: str


@dataclass
class LoopIdioms:
    """Classification result for one loop."""

    label: str
    #: Loop-carried scalar register classifications.
    scalars: Dict[Reg, str] = field(default_factory=dict)
    #: Recognized histogram updates.
    histograms: List[HistogramUpdate] = field(default_factory=list)
    #: Instruction sites participating in histogram updates.
    histogram_sites: Set[Tuple[str, int]] = field(default_factory=set)


def _is_loop_invariant(
    op: Operand, loop: Loop, defs_in_loop: Set[Reg]
) -> bool:
    if isinstance(op, Const):
        return True
    return op not in defs_in_loop


def _carried_regs(func: Function, loop: Loop) -> Tuple[Set[Reg], Set[Reg]]:
    """(loop-carried scalar regs, all regs defined in loop).

    A register is loop-carried when it is defined in the loop and its value
    flows around the back edge: approximated as *live into the header* and
    both defined and used inside the loop.
    """
    header_live = function_analyses(func).liveness.live_in[loop.header]
    defs: Set[Reg] = set()
    uses: Set[Reg] = set()
    for name in loop.blocks:
        for instr in func.blocks[name].instrs:
            defs.update(instr.defs())
            uses.update(instr.uses())
    carried = {r for r in defs & uses & header_live}
    return carried, defs


def conditional_blocks(func: Function, loop: Loop) -> Set[str]:
    """Blocks that execute conditionally *within* an iteration: control
    dependent on an in-loop branch other than the loop's own exits."""
    controldep = function_analyses(func).controldep
    exit_blocks = {
        name
        for name in loop.blocks
        if any(s not in loop.blocks for s in func.blocks[name].successors())
    }
    return {
        name
        for name in loop.blocks
        if (controldep.controlling_blocks(name) & loop.blocks) - exit_blocks
    }


def classify_loop(func: Function, loop: Loop) -> LoopIdioms:
    """Classify the carried scalars and histogram updates of ``loop``."""
    result = LoopIdioms(label=loop.label)
    carried, defs_in_loop = _carried_regs(func, loop)
    conditional = conditional_blocks(func, loop)

    # Gather def sites and use sites per carried register.
    def_sites: Dict[Reg, List[Tuple[str, int]]] = {r: [] for r in carried}
    use_sites: Dict[Reg, List[Tuple[str, int]]] = {r: [] for r in carried}
    for name in sorted(loop.blocks):
        for idx, instr in enumerate(func.blocks[name].instrs):
            for r in instr.defs():
                if r in carried:
                    def_sites[r].append((name, idx))
            for r in instr.uses():
                if r in carried:
                    use_sites[r].append((name, idx))

    for reg in sorted(carried, key=lambda r: r.name):
        result.scalars[reg] = _classify_scalar(
            func, loop, reg, def_sites[reg], use_sites[reg], defs_in_loop,
            conditional,
        )

    _find_histograms(func, loop, defs_in_loop, result)
    return result


def _classify_scalar(
    func: Function,
    loop: Loop,
    reg: Reg,
    dsites: List[Tuple[str, int]],
    usites: List[Tuple[str, int]],
    defs_in_loop: Set[Reg],
    conditional_blocks: Set[str] = frozenset(),
) -> str:
    def instr_at(site):
        return func.blocks[site[0]].instrs[site[1]]

    defs = [instr_at(s) for s in dsites]
    if not defs:
        return CARRIED_UNKNOWN

    # Induction: every def is reg = reg ± invariant, executed on every
    # iteration.  A conditionally bumped cursor (compaction, variable-degree
    # CSR) advances data-dependently: no codegen-substitutable induction.
    unconditional = all(site[0] not in conditional_blocks for site in dsites)
    if unconditional and all(
        isinstance(d, BinOp)
        and d.op in ("+", "-")
        and (
            (d.lhs == reg and _is_loop_invariant(d.rhs, loop, defs_in_loop))
            or (d.op == "+" and d.rhs == reg
                and _is_loop_invariant(d.lhs, loop, defs_in_loop))
        )
        for d in defs
    ):
        return INDUCTION

    # Pointer chase: every def is reg = getfield reg.<field> (p = p->next).
    if all(
        isinstance(d, GetField) and d.obj == reg for d in defs
    ):
        return POINTER_CHASE

    # For reductions the accumulator must not feed anything except its own
    # update chain: every use of reg inside the loop is within a def of reg.
    own_sites = set(dsites)
    escapes = [s for s in usites if s not in own_sites]

    if not escapes:
        if all(
            isinstance(d, BinOp)
            and d.op in ("+", "-")
            and (d.lhs == reg or (d.op == "+" and d.rhs == reg))
            for d in defs
        ):
            return REDUCTION_ADD
        if all(
            isinstance(d, BinOp) and d.op == "*" and reg in (d.lhs, d.rhs)
            for d in defs
        ):
            return REDUCTION_MUL
        if all(
            isinstance(d, CallBuiltin)
            and d.func in ("min", "max")
            and reg in d.args
            for d in defs
        ):
            return REDUCTION_MINMAX

    # Conditional min/max: a single definition not reading reg (a move or a
    # load, e.g. `m = a[i]`) guarded by a branch comparing against reg
    # (`if (a[i] > m) { m = a[i]; }`).  The comparison is the only read of
    # reg outside its own update, so `escapes` holds exactly the compare.
    if len(defs) == 1 and reg not in defs[0].uses() and len(escapes) == 1:
        compare = instr_at(escapes[0])
        if (
            isinstance(compare, BinOp)
            and compare.op in ("<", "<=", ">", ">=")
            and reg in (compare.lhs, compare.rhs)
        ):
            return REDUCTION_MINMAX_COND

    return CARRIED_UNKNOWN


def _find_histograms(
    func: Function, loop: Loop, defs_in_loop: Set[Reg], result: LoopIdioms
) -> None:
    """Recognize ``a[i] = a[i] op e`` read-modify-write triples."""
    for name in sorted(loop.blocks):
        instrs = func.blocks[name].instrs
        for idx, instr in enumerate(instrs):
            if not isinstance(instr, SetIndex):
                continue
            # Find the value's def: BinOp(+/-/*) with one operand loaded
            # from the same array at the same index, earlier in this block.
            value = instr.value
            if not isinstance(value, Reg):
                continue
            binop: Optional[BinOp] = None
            for j in range(idx - 1, -1, -1):
                prev = instrs[j]
                if value in prev.defs():
                    if isinstance(prev, BinOp) and prev.op in ("+", "-", "*"):
                        binop = prev
                        binop_idx = j
                    break
            if binop is None:
                continue
            load: Optional[GetIndex] = None
            for operand in (binop.lhs, binop.rhs):
                if not isinstance(operand, Reg):
                    continue
                for j in range(binop_idx - 1, -1, -1):
                    prev = instrs[j]
                    if operand in prev.defs():
                        if (
                            isinstance(prev, GetIndex)
                            and prev.arr == instr.arr
                            and prev.index == instr.index
                        ):
                            load = prev
                            load_idx = j
                        break
                if load is not None:
                    break
            if load is None or not isinstance(instr.arr, Reg):
                continue
            update = HistogramUpdate(
                array=instr.arr,
                get_site=(name, load_idx),
                set_site=(name, idx),
                op=binop.op,
            )
            result.histograms.append(update)
            result.histogram_sites.add(update.get_site)
            result.histogram_sites.add(update.set_site)
