"""DISCOPOP-style baseline (Li et al., JSS 2016 [9]).

Also profile-driven, but with a different capability envelope than
dependence profiling, reflecting the published tool's computational-unit
(CU) model:

* **stronger reduction handling** — dynamic recognition covers histogram
  updates (``a[f(i)] += e``) and conditional min/max reductions in
  addition to simple scalar reductions, so cross-iteration flow
  dependences fully contained in a recognized reduction group do not block
  parallelization;
* **weaker interprocedural coverage** — CU construction is limited around
  calls with side effects: a loop whose payload calls a function that
  (transitively) writes the heap or globals is rejected as unanalyzable.

As in the paper (§V-A), results for DiscoPoP are a faithful *policy*
reimplementation rather than the original tool, which is not available.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.analysis.reductions import COMPLEX_REDUCTIONS, INDUCTION
from repro.baselines.base import DetectionContext, Detector
from repro.ir.instructions import Call


class DiscoPopDetector(Detector):
    name = "discopop"

    _OK_SCALARS = frozenset({INDUCTION}) | COMPLEX_REDUCTIONS

    def classify_loop(self, ctx: DetectionContext, label: str) -> Tuple[bool, str]:
        if ctx.profile is None:
            return False, "no profile available"
        if label not in ctx.profile.executed:
            return False, "loop not exercised by the workload"
        from repro.core.instrument import loop_does_io

        if loop_does_io(ctx.function_of(label), ctx.loop(label).blocks, ctx.effects):
            return False, "I/O ordering constraint in the loop"
        deps = ctx.profile.deps_for(label)

        func = ctx.function_of(label)
        for _name, _idx, instr in ctx.loop_instructions(label):
            if isinstance(instr, Call) and instr.func in ctx.effects.effects:
                callee = ctx.effects.of(instr.func)
                if callee.writes_heap or callee.globals_written or callee.does_io:
                    return False, (
                        f"CU barrier: call to {instr.func} with side effects"
                    )

        idioms = ctx.idioms[label]
        for reg, klass in idioms.scalars.items():
            if klass not in self._OK_SCALARS:
                return False, f"loop-carried scalar {reg} is {klass}"

        reduction_sites: Set[Tuple[str, int]] = set(idioms.histogram_sites)
        for edge in deps.cross_iteration_edges("raw"):
            w = (edge.writer[1], edge.writer[2])
            r = (edge.reader[1], edge.reader[2])
            if edge.writer[0] == func.name and w in reduction_sites and (
                edge.reader[0] == func.name and r in reduction_sites
            ):
                continue  # dynamic reduction group
            return False, (
                f"cross-iteration flow dependence {edge.writer} -> {edge.reader}"
            )
        for kind in ("war", "waw"):
            for edge in deps.cross_iteration_edges(kind):
                w = (edge.writer[1], edge.writer[2])
                r = (edge.reader[1], edge.reader[2])
                if w in reduction_sites and r in reduction_sites:
                    continue
                if not ctx.profile.is_privatizable(label, edge.loc):
                    return False, (
                        f"cross-iteration {kind} on non-privatizable location"
                    )
        return True, "doall after dynamic reduction/privatization analysis"
