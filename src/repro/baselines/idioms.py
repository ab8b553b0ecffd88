"""IDIOMS baseline (Ginsbach & O'Boyle, CGO 2017 [51]).

A constraint-based detector specialized in **complex reduction and
histogram operations**.  A loop is reported exactly when it *is* such an
idiom:

* it contains at least one reduction (simple or conditional min/max) or
  histogram update;
* every other carried scalar is an induction variable;
* every memory write in the loop belongs to a recognized histogram group
  (struct/global writes disqualify the match);
* no calls (the constraint matcher works on a single loop body); pure
  math builtins are permitted.

This gives IDIOMS its characteristic envelope from the paper's Table III:
few loops overall, but including reduction/histogram loops that both ICC
and Polly miss.
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis.reductions import COMPLEX_REDUCTIONS, INDUCTION
from repro.baselines.base import DetectionContext, Detector
from repro.ir.instructions import Call, CallBuiltin, SetField, SetIndex, StoreGlobal
from repro.lang.builtins import builtin_is_pure


class IdiomsDetector(Detector):
    name = "idioms"

    def classify_loop(self, ctx: DetectionContext, label: str) -> Tuple[bool, str]:
        idioms = ctx.idioms[label]

        has_reduction = bool(idioms.histograms) or any(
            klass in COMPLEX_REDUCTIONS for klass in idioms.scalars.values()
        )
        if not has_reduction:
            return False, "no reduction or histogram idiom in the loop"

        for reg, klass in idioms.scalars.items():
            if klass != INDUCTION and klass not in COMPLEX_REDUCTIONS:
                return False, f"loop-carried scalar {reg} is {klass}"

        for name, idx, instr in ctx.loop_instructions(label):
            if isinstance(instr, Call):
                return False, f"call to {instr.func} breaks the constraint match"
            if isinstance(instr, CallBuiltin) and not builtin_is_pure(instr.func):
                return False, "side-effecting builtin in loop"
            if isinstance(instr, (SetField, StoreGlobal)):
                return False, f"write outside the idiom: {instr}"
            if isinstance(instr, SetIndex):
                if (name, idx) not in idioms.histogram_sites:
                    return False, f"array write outside the idiom at {name}:{idx}"
        return True, "reduction/histogram idiom matched"
