"""Common infrastructure for the five baseline parallelism detectors.

Every detector consumes a shared :class:`DetectionContext` (static analyses
plus, for the dynamic tools, one profiled execution) and returns a verdict
per source loop.  This mirrors the paper's setup where all tools are
configured for *maximum detection capability* (§V-A Configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import repro.obs as obs
from repro.analysis.alias import PointsTo
from repro.analysis.dynamic_deps import DynamicDepProfiler
from repro.analysis.loops import Loop, LoopForest, build_loop_forest
from repro.analysis.purity import EffectAnalysis
from repro.analysis.reductions import LoopIdioms, classify_loop
from repro.interp.compiler import create_executor
from repro.ir.function import Function, Module


@dataclass
class DetectionResult:
    """One detector's verdict for one loop."""

    label: str
    parallel: bool
    reason: str = ""
    detector: str = ""


@dataclass
class DetectionContext:
    """Shared analysis state for all detectors on one program + workload."""

    module: Module
    effects: EffectAnalysis
    points_to: PointsTo
    forests: Dict[str, LoopForest]
    idioms: Dict[str, LoopIdioms]
    #: label -> owning function name
    loop_functions: Dict[str, str]
    #: Dynamic profile; None when the profiled run was skipped.
    profile: Optional[DynamicDepProfiler] = None
    profiled_steps: int = 0
    #: Per-component cost records ("profile" plus one entry per detector
    #: that ran), comparable with DCA's report metrics: loops classified,
    #: wall ms, and for dynamic components instructions/executions.
    costs: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def loop(self, label: str) -> Loop:
        func = self.loop_functions[label]
        return self.forests[func].loops[label]

    def function_of(self, label: str) -> Function:
        return self.module.functions[self.loop_functions[label]]

    def all_labels(self) -> List[str]:
        return sorted(self.loop_functions)


def build_context(
    module: Module,
    entry: str = "main",
    args: Optional[Sequence[object]] = None,
    run_profile: bool = True,
    max_steps: Optional[int] = None,
    exec_backend: Optional[str] = None,
) -> DetectionContext:
    """Run the static analyses (and one profiled execution) for detection.

    The profiled execution takes ``exec_backend`` (see
    :func:`repro.interp.compiler.create_executor`): codegen runs it on
    its profiled lowering, the other backends on the interpreter.
    """
    forests: Dict[str, LoopForest] = {}
    idioms: Dict[str, LoopIdioms] = {}
    loop_functions: Dict[str, str] = {}
    for func in module.functions.values():
        forest = build_loop_forest(func)
        forests[func.name] = forest
        for label in func.loops:
            if label not in forest.loops:
                continue
            loop_functions[label] = func.name
            idioms[label] = classify_loop(func, forest.loops[label])

    profile = None
    profiled_steps = 0
    costs: Dict[str, Dict[str, float]] = {}
    if run_profile:
        profile = DynamicDepProfiler(module)
        with obs.current().span("baseline.profile", entry=entry) as span:
            executor = create_executor(
                module,
                observers=[profile],
                max_steps=max_steps,
                exec_backend=exec_backend,
            )
            executor.run(entry, list(args or []))
        profiled_steps = executor.steps
        costs["profile"] = {
            "executions": 1,
            "instructions": profiled_steps,
            "wall_ms": span.dur_ms,
        }

    ctx = DetectionContext(
        module=module,
        effects=EffectAnalysis(module),
        points_to=PointsTo(module),
        forests=forests,
        idioms=idioms,
        loop_functions=loop_functions,
        profile=profile,
        profiled_steps=profiled_steps,
    )
    ctx.costs.update(costs)
    return ctx


class Detector:
    """Base class: one parallelism-detection technique."""

    name = "abstract"

    def detect(self, ctx: DetectionContext) -> Dict[str, DetectionResult]:
        active = obs.current()
        results = {}
        with active.span("baseline.detect", detector=self.name) as span:
            for label in ctx.all_labels():
                parallel, reason = self.classify_loop(ctx, label)
                results[label] = DetectionResult(
                    label=label, parallel=parallel, reason=reason,
                    detector=self.name,
                )
        ctx.costs[self.name] = {
            "loops": len(results),
            "parallel": sum(1 for r in results.values() if r.parallel),
            "wall_ms": span.dur_ms,
        }
        if active.enabled:
            active.metrics.counter(
                f"baseline.{self.name}.loops_classified"
            ).inc(len(results))
        return results

    def classify_loop(self, ctx: DetectionContext, label: str):
        raise NotImplementedError


def combine_static(
    results: Sequence[Dict[str, DetectionResult]]
) -> Dict[str, DetectionResult]:
    """Union of detector verdicts — the paper's "Combined Static" column."""
    combined: Dict[str, DetectionResult] = {}
    for per_tool in results:
        for label, res in per_tool.items():
            cur = combined.get(label)
            if cur is None or (res.parallel and not cur.parallel):
                combined[label] = DetectionResult(
                    label=label,
                    parallel=res.parallel,
                    reason=res.reason,
                    detector="combined",
                )
    return combined
