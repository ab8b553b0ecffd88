"""POLLY-style baseline (Grosser et al. [52]).

A polyhedral detector: a loop is parallelizable only when it forms a
static control part (SCoP) —

* no calls (pure math builtins are tolerated, like LLVM intrinsics),
* no pointer/struct accesses, no allocation, no global writes,
* every array subscript affine in the induction variables of the nest,
* all carried scalars are induction variables,

— and the exact dependence test proves the absence of loop-carried
dependences.  Distinct allocation sites are assumed not to alias
(mirroring Polly's reliance on LLVM alias metadata); aliasing candidates
fall back to conservative dependence.

Profitability is out of detection scope, matching the paper's
``-polly-process-unprofitable`` configuration.
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis.affine import AffineContext, cross_iteration_dependence
from repro.analysis.reductions import INDUCTION
from repro.baselines.base import DetectionContext, Detector
from repro.ir.instructions import (
    Call,
    CallBuiltin,
    GetField,
    NewArray,
    NewStruct,
    SetField,
    StoreGlobal,
)
from repro.lang.builtins import builtin_is_pure


class PollyDetector(Detector):
    name = "polly"

    #: Instruction kinds that break the SCoP property outright.
    _SCOP_BREAKERS = (GetField, SetField, NewStruct, NewArray, StoreGlobal)

    def classify_loop(self, ctx: DetectionContext, label: str) -> Tuple[bool, str]:
        func = ctx.function_of(label)
        loop = ctx.loop(label)

        for _name, _idx, instr in ctx.loop_instructions(label):
            if isinstance(instr, Call):
                return False, f"call to {instr.func} breaks the SCoP"
            if isinstance(instr, CallBuiltin) and not builtin_is_pure(instr.func):
                return False, "side-effecting builtin breaks the SCoP"
            if isinstance(instr, self._SCOP_BREAKERS):
                return False, f"non-affine memory operation: {instr}"

        idioms = ctx.idioms[label]
        for reg, klass in idioms.scalars.items():
            if klass != INDUCTION:
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
                    # May-aliasing distinct names: no subscript relation.
                    return False, (
                        f"possible aliasing between {a.root} and {b.root}"
                    )
                if cross_iteration_dependence(a, b, tested, steps):
                    return False, (
                        f"loop-carried dependence between {a.site} and {b.site}"
                    )
        return True, "affine SCoP with no loop-carried dependences"
