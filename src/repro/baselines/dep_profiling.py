"""DEPENDENCE PROFILING baseline (Tournavitis et al., PLDI 2009 [8]).

A profile-driven dependence-based detector: a loop is reported
parallelizable when the profiled execution exhibits

* no cross-iteration flow (RAW) dependence through memory,
* no cross-iteration anti/output (WAR/WAW) dependence on a location that
  is not privatizable (written before read in every iteration touching it),

and the loop's statically visible carried scalars are all induction
variables or *simple* reductions (``+``, ``*``, ``min``/``max``) — the
classes [8]'s code generator can privatize or reduce.

Pointer-chasing inductions (``p = p->next``) are loop-carried flow
dependences this technique cannot break — exactly the paper's Fig. 1(b)
argument — so PLDS traversals are rejected.  Memory accesses inside called
functions are followed (attributed to their call site), matching the
whole-program profiling of [8].
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis.reductions import INDUCTION, SIMPLE_REDUCTIONS
from repro.baselines.base import DetectionContext, Detector


class DependenceProfilingDetector(Detector):
    name = "dep-profiling"

    #: Scalar classes this tool's codegen can handle.
    _OK_SCALARS = frozenset({INDUCTION}) | SIMPLE_REDUCTIONS

    def classify_loop(self, ctx: DetectionContext, label: str) -> Tuple[bool, str]:
        if ctx.profile is None:
            return False, "no profile available"
        if label not in ctx.profile.max_trips:
            return False, "loop not exercised by the workload"
        from repro.core.instrument import loop_does_io

        if loop_does_io(ctx.function_of(label), ctx.loop(label).blocks, ctx.effects):
            return False, "I/O ordering constraint in the loop"
        carried = ctx.profile.loop(label).carried

        idioms = ctx.idioms[label]
        for reg, klass in idioms.scalars.items():
            if klass not in self._OK_SCALARS:
                return False, f"loop-carried scalar {reg} is {klass}"

        if carried.get("raw"):
            writer, reader = min(carried["raw"])
            return False, (
                f"cross-iteration flow dependence {writer} -> {reader}"
            )
        for kind in ("war", "waw"):
            if not all(carried.get(kind, {}).values()):
                return False, (
                    f"cross-iteration {kind} on non-privatizable location"
                )
        return True, "no blocking cross-iteration dependences observed"
