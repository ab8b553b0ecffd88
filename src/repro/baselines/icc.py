"""ICC-style baseline (Intel C++ Compiler auto-parallelization [53]).

A mature static dependence-based auto-parallelizer.  Compared with the
Polly-style SCoP model it is more robust (paper §V-C1):

* calls to *pure* functions are tolerated — modelling ICC's aggressive
  inlining of side-effect-free functions;
* simple scalar reductions (``+``, ``*``, ``min``/``max`` builtins) are
  recognized and parallelized with a reduction clause;
* loads through loop-invariant struct pointers are allowed (they behave
  like invariant scalars for the dependence test).

It shares ICC's blind spots: complex/conditional reductions and histogram
updates are not recognized (IDIOMS' territory), writes through pointers
defeat it, and the detection-phase profitability heuristic is disabled
(``par-threshold`` at maximum detection, §V-A).
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis.affine import AffineContext, cross_iteration_dependence
from repro.analysis.reductions import INDUCTION, SIMPLE_REDUCTIONS
from repro.baselines.base import DetectionContext, Detector
from repro.ir.instructions import (
    Call,
    CallBuiltin,
    GetField,
    NewArray,
    NewStruct,
    Reg,
    SetField,
    StoreGlobal,
)
from repro.lang.builtins import builtin_is_pure


class IccDetector(Detector):
    name = "icc"

    _OK_SCALARS = frozenset({INDUCTION}) | SIMPLE_REDUCTIONS

    def classify_loop(self, ctx: DetectionContext, label: str) -> Tuple[bool, str]:
        func = ctx.function_of(label)
        loop = ctx.loop(label)

        defs_in_loop = set()
        for _name, _idx, instr in ctx.loop_instructions(label):
            defs_in_loop.update(instr.defs())

        for _name, _idx, instr in ctx.loop_instructions(label):
            if isinstance(instr, Call):
                if instr.func not in ctx.effects.effects:
                    return False, f"unknown callee {instr.func}"
                callee = ctx.effects.of(instr.func)
                if not callee.is_pure or callee.reads_heap or callee.globals_read:
                    return False, (
                        f"call to impure function {instr.func} defeats analysis"
                    )
            elif isinstance(instr, CallBuiltin):
                if not builtin_is_pure(instr.func):
                    return False, "side-effecting builtin in loop"
            elif isinstance(instr, (SetField, NewStruct, NewArray, StoreGlobal)):
                return False, f"unanalyzable memory write: {instr}"
            elif isinstance(instr, GetField):
                base = instr.obj
                if isinstance(base, Reg) and base in defs_in_loop:
                    return False, f"load through loop-varying pointer {base}"

        idioms = ctx.idioms[label]
        for reg, klass in idioms.scalars.items():
            if klass not in self._OK_SCALARS:
                return False, f"loop-carried scalar {reg} is {klass}"

        actx = AffineContext(func, loop)
        accesses = actx.collect_accesses()
        if accesses is None:
            return False, "unresolvable array base"
        for acc in accesses:
            if any(sub is None for sub in acc.subscripts):
                return False, f"non-affine subscript at {acc.site}"

        tested = actx.tested_ivs()
        steps = {reg: step for reg, (_l, step) in actx.ivs.items()}
        for i, a in enumerate(accesses):
            for b in accesses[i:]:
                if not (a.is_write or b.is_write):
                    continue
                if not ctx.points_to.may_alias(func.name, a.root, b.root):
                    continue
                if a.root != b.root:
                    return False, (
                        f"possible aliasing between {a.root} and {b.root}"
                    )
                if cross_iteration_dependence(a, b, tested, steps):
                    return False, (
                        f"loop-carried dependence between {a.site} and {b.site}"
                    )
        return True, "static dependence test passed (with pure-call inlining)"
