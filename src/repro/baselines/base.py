"""Common infrastructure for the five baseline parallelism detectors.

Every detector consumes a shared :class:`DetectionContext` (static analyses
plus, for the dynamic tools, the summary of one profiled execution) and
returns a verdict per source loop.  This mirrors the paper's setup where
all tools are configured for *maximum detection capability* (§V-A
Configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.analysis.alias import PointsTo
from repro.analysis.dynamic_deps import ProfileSummary, profile_program
from repro.analysis.loops import Loop, LoopForest, build_loop_forest
from repro.analysis.purity import EffectAnalysis
from repro.analysis.reductions import LoopIdioms, classify_loop
from repro.ir.function import Function, Module
from repro.ir.instructions import Instr


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
    #: Summary of the profiled run (the one DCA's profile stage reads).
    profile: Optional[ProfileSummary] = None
    #: Per-component cost records ("profile" plus one entry per detector
    #: that ran), comparable with DCA's report metrics: loops classified,
    #: wall ms, and for dynamic components instructions/executions.
    costs: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def loop(self, label: str) -> Loop:
        func = self.loop_functions[label]
        return self.forests[func].loops[label]

    def function_of(self, label: str) -> Function:
        return self.module.functions[self.loop_functions[label]]

    def loop_instructions(
        self, label: str
    ) -> Iterator[Tuple[str, int, Instr]]:
        """``(block, index, instruction)`` for every instruction of the
        loop, in program block order.  Detectors report the first
        blocker they meet, so the walk must not follow the order of the
        loop's block set, which string hashing changes per process."""
        func = self.function_of(label)
        blocks = self.loop(label).blocks
        for name in func.block_order:
            if name in blocks:
                for idx, instr in enumerate(func.blocks[name].instrs):
                    yield name, idx, instr

    def all_labels(self) -> List[str]:
        return sorted(self.loop_functions)


def build_context(
    module: Module,
    entry: str = "main",
    args: Optional[Sequence[object]] = None,
    max_steps: Optional[int] = None,
    exec_backend: Optional[str] = None,
    profile: Optional[ProfileSummary] = None,
) -> DetectionContext:
    """Run the static analyses for detection, around a profile summary.

    ``profile`` is the summary of a run of ``module`` on this workload
    (``repro detect`` passes the one DCA's profile stage produced); the
    caller books its cost.  Without one, this profiles one execution on
    ``exec_backend`` (see :func:`~repro.analysis.dynamic_deps.
    profile_program`) and books it as ``costs["profile"]``.
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

    costs: Dict[str, Dict[str, float]] = {}
    if profile is None:
        with obs.current().span("baseline.profile", entry=entry) as span:
            profile = profile_program(
                module,
                entry,
                args or (),
                max_steps=max_steps,
                exec_backend=exec_backend,
            )
        costs["profile"] = profile_cost(profile, span.dur_ms)

    return DetectionContext(
        module=module,
        effects=EffectAnalysis(module),
        points_to=PointsTo(module),
        forests=forests,
        idioms=idioms,
        loop_functions=loop_functions,
        profile=profile,
        costs=costs,
    )


def profile_cost(profile: ProfileSummary, wall_ms: float) -> Dict[str, float]:
    """The ``costs["profile"]`` record of one profiled execution."""
    return {
        "executions": 1,
        "instructions": profile.steps,
        "wall_ms": wall_ms,
    }


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
