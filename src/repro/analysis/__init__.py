"""Compiler analyses shared by DCA and the baseline detectors."""

from repro.analysis.affine import (
    AffineContext,
    ArrayAccess,
    cross_iteration_dependence,
)
from repro.analysis.alias import PointsTo
from repro.analysis.cfg import compute_dominators, dominates, reverse_postorder
from repro.analysis.commutativity import (
    PROVEN_COMMUTATIVE,
    PROVEN_NONCOMMUTATIVE,
    UNKNOWN,
    Evidence,
    StaticCommutativityAnalysis,
    StaticLoopVerdict,
)
from repro.analysis.defuse import ReachingDefs
from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticEngine,
    diagnostic_from_static,
)
from repro.analysis.dynamic_deps import DynamicDepProfiler
from repro.analysis.liveness import Liveness, LoopLiveness
from repro.analysis.loops import (
    Loop,
    LoopForest,
    build_loop_forest,
    function_analyses,
    invalidate_loops,
)
from repro.analysis.postdom import ControlDependence, PostDominators
from repro.analysis.purity import EffectAnalysis, FunctionEffects
from repro.analysis.reductions import LoopIdioms, classify_loop
from repro.analysis.sccdag import (
    ParallelismTier,
    PipelinePlan,
    SccDag,
    SccNode,
    build_sccdag,
    partition_stages,
)

__all__ = [
    "AffineContext",
    "ArrayAccess",
    "ControlDependence",
    "Diagnostic",
    "DiagnosticEngine",
    "DynamicDepProfiler",
    "EffectAnalysis",
    "Evidence",
    "FunctionEffects",
    "Liveness",
    "Loop",
    "LoopForest",
    "LoopIdioms",
    "LoopLiveness",
    "PROVEN_COMMUTATIVE",
    "PROVEN_NONCOMMUTATIVE",
    "ParallelismTier",
    "PipelinePlan",
    "PointsTo",
    "PostDominators",
    "ReachingDefs",
    "SccDag",
    "SccNode",
    "StaticCommutativityAnalysis",
    "StaticLoopVerdict",
    "UNKNOWN",
    "build_loop_forest",
    "build_sccdag",
    "classify_loop",
    "compute_dominators",
    "cross_iteration_dependence",
    "diagnostic_from_static",
    "dominates",
    "function_analyses",
    "invalidate_loops",
    "partition_stages",
    "reverse_postorder",
]
