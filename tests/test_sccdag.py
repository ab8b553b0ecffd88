"""SCC-DAG construction, classification, stage partitioning, tiering.

Covers the pipeline tier end to end: the condensation of the dynamic
dependence graph (:mod:`repro.analysis.sccdag`), the DSWP makespan model
(:func:`repro.parallel.machine.pipeline_invocation_time`), the tiered
verdicts threaded through :class:`~repro.core.dca.DcaAnalyzer`, the
schema-2 report serialization, the config-fingerprint gating, and the
flag>env>default resolution of ``REPRO_TIERING``.
"""

import hashlib
import json
import os

import pytest

from repro.analysis.dynamic_deps import DynamicDepProfiler
from repro.analysis.loops import build_loop_forest
from repro.analysis.reductions import classify_loop
from repro.analysis.sccdag import (
    DEFAULT_MAX_PIPELINE_STAGES,
    SCC_PARALLEL,
    SCC_REDUCTION,
    SCC_SEQUENTIAL,
    TIER_DOALL,
    TIER_PIPELINE,
    TIER_REDUCTION,
    TIER_SEQUENTIAL,
    ParallelismTier,
    build_sccdag,
    partition_stages,
    stage_shapes,
    tier_display,
)
from repro.benchsuite import ALL_BENCHMARKS
from repro.core.config import AnalysisConfig
from repro.core.dca import DcaAnalyzer
from repro.core.report import REPORT_SCHEMA_VERSION
from repro.driver import compile_program
from repro.interp.compiler import create_executor
from repro.interp.interpreter import Interpreter
from repro.parallel.machine import (
    MachineModel,
    parallel_invocation_time,
    pipeline_invocation_time,
)
from repro.settings import resolve

TIERED = AnalysisConfig(tiering=True)


#: Scalar recurrence (sequential SCC) feeding an elementwise store
#: (parallel SCC): the canonical 2+-SCC pipelinable loop.
CURSOR = """
func void main() {
  int[] a = new int[16];
  int[] out = new int[16];
  for (int i = 0; i < 16; i = i + 1) { a[i] = (i * 7 + 3) % 13; }
  int cur = 1;
  for (int i = 0; i < 16; i = i + 1) {
    cur = cur * 3 + a[i];
    out[i] = cur % 5 + a[i] * 2;
  }
  int s = 0;
  for (int i = 0; i < 16; i = i + 1) { s += out[i]; }
  print(s);
  print(cur);
}
"""

#: Prefix-sum memory cycle: p[i] reads p[i-1] — one carried memory SCC
#: plus an independent parallel store.
SHIFT = """
func void main() {
  int[] a = new int[12];
  int[] p = new int[13];
  int[] b = new int[12];
  for (int i = 0; i < 12; i = i + 1) { a[i] = i * 5 % 7; }
  p[0] = 0;
  for (int i = 0; i < 12; i = i + 1) {
    p[i + 1] = p[i] + a[i];
    b[i] = a[i] * 3;
  }
  int s = 0;
  for (int i = 0; i < 12; i = i + 1) { s += b[i]; }
  print(p[12]);
  print(s);
}
"""

#: Pure elementwise loop — every SCC parallel, commutative, DOALL tier.
ELEMENTWISE = """
func void main() {
  int[] a = new int[10];
  int[] b = new int[10];
  for (int i = 0; i < 10; i = i + 1) { a[i] = i * 3; }
  for (int i = 0; i < 10; i = i + 1) { b[i] = a[i] * 2 + 1; }
  int s = 0;
  for (int i = 0; i < 10; i = i + 1) { s += b[i]; }
  print(s);
}
"""


def _loop_parts(source, label):
    """(func, loop, profile summary entry, idioms) for one loop."""
    module = compile_program(source)
    profiler = DynamicDepProfiler(module)
    interp = Interpreter(module, observers=[profiler])
    interp.run("main", ())
    deps = profiler.summary(interp.steps).loop(label)
    for func in module.functions.values():
        forest = build_loop_forest(func)
        if label in forest.loops:
            loop = forest.loops[label]
            return func, loop, deps, classify_loop(func, loop)
    raise AssertionError(f"loop {label} not found")


# -- SCC-DAG construction -----------------------------------------------------


#: Per program and loop, a digest of the SCC-DAG and default stage plan
#: built from the location-level profile (every edge's concrete
#: location's privatization checked one by one), for all 24 programs.
SCCDAG_GOLDEN = os.path.join(
    os.path.dirname(__file__), "goldens", "sccdag_digests.json"
)


def _dag_digest(dag) -> str:
    plan = partition_stages(dag, DEFAULT_MAX_PIPELINE_STAGES)
    canonical = json.dumps(
        {
            "nodes": [
                [[list(site) for site in node.sites], node.classification,
                 node.weight, list(node.reasons)]
                for node in dag.nodes
            ],
            "edges": sorted(dag.edges),
            "carried": sorted(dag.carried_edges),
            "plan": plan.to_dict(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
def test_summary_sccdags_match_the_location_level_golden(bench):
    """The summary folds each carried pair's locations into one flag;
    every loop's SCCs, reasons and stages must not move."""
    with open(SCCDAG_GOLDEN) as fh:
        expected = json.load(fh)[bench.name]
    module = compile_program(bench.source)
    profiler = DynamicDepProfiler(module)
    executor = create_executor(module, observers=[profiler])
    executor.run(bench.entry, [])
    summary = profiler.summary(executor.steps)
    got = {}
    for func in module.functions.values():
        forest = build_loop_forest(func)
        for label, loop in forest.loops.items():
            dag = build_sccdag(
                func, loop, summary.loop(label), classify_loop(func, loop)
            )
            got[label] = _dag_digest(dag)
    assert got == expected


def test_recurrence_forms_sequential_scc():
    dag = build_sccdag(*_loop_parts(CURSOR, "main.L1"))
    classes = dag.classification_counts()
    assert classes.get(SCC_SEQUENTIAL, 0) >= 1
    assert classes.get(SCC_PARALLEL, 0) >= 1
    seq = dag.sequential_nodes()[0]
    assert any("carried-unknown" in r for r in seq.reasons)


def test_prefix_memory_cycle_is_sequential():
    dag = build_sccdag(*_loop_parts(SHIFT, "main.L1"))
    assert len(dag.sequential_nodes()) >= 1
    # The independent b[i] store must not be dragged into the cycle.
    assert dag.classification_counts().get(SCC_PARALLEL, 0) >= 1


def test_elementwise_loop_has_no_cycles():
    dag = build_sccdag(*_loop_parts(ELEMENTWISE, "main.L1"))
    assert dag.sequential_nodes() == []
    assert all(n.classification == SCC_PARALLEL for n in dag.nodes)


def test_dag_edges_are_topological():
    dag = build_sccdag(*_loop_parts(CURSOR, "main.L1"))
    for src, dst in dag.edges:
        assert src != dst


def test_sccdag_is_deterministic():
    first = build_sccdag(*_loop_parts(CURSOR, "main.L1"))
    second = build_sccdag(*_loop_parts(CURSOR, "main.L1"))
    assert [n.sites for n in first.nodes] == [n.sites for n in second.nodes]
    assert [n.classification for n in first.nodes] == [
        n.classification for n in second.nodes
    ]
    assert first.edges == second.edges


# -- stage partitioning -------------------------------------------------------


def test_partition_produces_multiple_stages():
    dag = build_sccdag(*_loop_parts(CURSOR, "main.L1"))
    plan = partition_stages(dag)
    assert 2 <= len(plan.stages) <= DEFAULT_MAX_PIPELINE_STAGES
    assert sum(stage.weight for stage in plan.stages) == plan.total_weight
    # Every SCC lands in exactly one stage.
    assigned = [i for stage in plan.stages for i in stage.scc_indices]
    assert sorted(assigned) == sorted(n.index for n in dag.nodes)


def test_partition_respects_max_stages():
    dag = build_sccdag(*_loop_parts(CURSOR, "main.L1"))
    plan = partition_stages(dag, max_stages=2)
    assert len(plan.stages) == 2


def test_partition_stage_order_is_topological():
    dag = build_sccdag(*_loop_parts(CURSOR, "main.L1"))
    plan = partition_stages(dag)
    stage_of = {
        scc: stage.index
        for stage in plan.stages
        for scc in stage.scc_indices
    }
    for src, dst in dag.edges:
        assert stage_of[src] <= stage_of[dst]


def test_sequential_scc_disables_stage_replication():
    dag = build_sccdag(*_loop_parts(CURSOR, "main.L1"))
    plan = partition_stages(dag)
    stage_of = {
        scc: stage.index
        for stage in plan.stages
        for scc in stage.scc_indices
    }
    for node in dag.sequential_nodes():
        assert not plan.stages[stage_of[node.index]].parallel


def test_plan_roundtrips_through_dict():
    dag = build_sccdag(*_loop_parts(CURSOR, "main.L1"))
    plan = partition_stages(dag)
    payload = plan.to_dict()
    assert json.loads(json.dumps(payload)) == payload
    shapes = stage_shapes(payload)
    assert len(shapes) == len(plan.stages)
    assert all(weight > 0 for weight, _ in shapes)


# -- pipeline makespan model --------------------------------------------------


def test_pipeline_time_beats_sequential():
    model = MachineModel()
    costs = [100] * 40
    seq = sum(costs) + model.fork_join_cost
    t = pipeline_invocation_time(costs, [(1, False), (1, False)], model)
    assert t < seq


def test_pipeline_time_never_beats_doall():
    model = MachineModel()
    costs = [100] * 40
    doall = parallel_invocation_time(costs, model)
    piped = pipeline_invocation_time(
        costs, [(1, True), (1, True), (1, False)], model
    )
    assert piped >= doall


def test_pipeline_single_stage_degenerates_to_sequential():
    model = MachineModel()
    costs = [50] * 10
    assert pipeline_invocation_time(costs, [(4, False)], model) == (
        sum(costs) + model.fork_join_cost
    )


def test_pipeline_too_few_cores_degenerates():
    model = MachineModel(cores=1)
    costs = [50] * 10
    t = pipeline_invocation_time(costs, [(1, False), (1, False)], model)
    assert t == sum(costs) + model.fork_join_cost


def test_pipeline_replicated_stage_helps():
    model = MachineModel(cores=8)
    costs = [100] * 40
    narrow = pipeline_invocation_time(
        costs, [(1, False), (3, False)], model
    )
    wide = pipeline_invocation_time(costs, [(1, False), (3, True)], model)
    assert wide < narrow


def test_pipeline_empty_costs():
    assert pipeline_invocation_time([], [(1, False)], MachineModel()) == 0


# -- tiering resolution (flag > env > default) --------------------------------


def test_resolve_tiering_default_off(monkeypatch):
    monkeypatch.delenv("REPRO_TIERING", raising=False)
    assert resolve("tiering") is False
    assert DcaAnalyzer(compile_program(CURSOR)).config.tiering is False


def test_resolve_tiering_env(monkeypatch):
    monkeypatch.setenv("REPRO_TIERING", "1")
    assert resolve("tiering") is True
    assert DcaAnalyzer(compile_program(CURSOR)).config.tiering is True
    monkeypatch.setenv("REPRO_TIERING", "off")
    assert resolve("tiering") is False


def test_resolve_tiering_explicit_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_TIERING", "1")
    assert resolve("tiering", False) is False
    assert DcaAnalyzer(
        compile_program(CURSOR), AnalysisConfig(tiering=False)
    ).config.tiering is False
    monkeypatch.delenv("REPRO_TIERING")
    assert resolve("tiering", True) is True


def test_parallelism_tier_enum_values():
    assert ParallelismTier.DOALL.value == TIER_DOALL
    assert ParallelismTier.PIPELINE.value == TIER_PIPELINE
    assert {t.value for t in ParallelismTier} == {
        TIER_DOALL,
        TIER_REDUCTION,
        TIER_PIPELINE,
        TIER_SEQUENTIAL,
    }


def test_tier_display():
    assert tier_display(None) == "-"
    assert tier_display(TIER_DOALL) == "DOALL"
    plan = {"stages": [{}, {}]}
    assert tier_display(TIER_PIPELINE, plan) == "PIPELINE(stages=2)"


# -- analyzer integration -----------------------------------------------------


def test_tiering_assigns_pipeline_tier():
    report = DcaAnalyzer(compile_program(CURSOR), TIERED).analyze()
    result = report.loop("main.L1")
    assert result.verdict == "non-commutative"
    assert result.tier == TIER_PIPELINE
    assert result.pipeline_plan is not None
    assert len(result.pipeline_plan["stages"]) >= 2


def test_tiering_assigns_doall_and_reduction():
    report = DcaAnalyzer(compile_program(ELEMENTWISE), TIERED).analyze()
    assert report.loop("main.L1").tier == TIER_DOALL
    assert report.loop("main.L2").tier == TIER_REDUCTION
    assert report.loop("main.L1").pipeline_plan is None


def test_untestable_loop_tiers_sequential():
    # I/O inside the loop excludes it at selection — no dependence
    # profile to pipeline, so the tier falls through to SEQUENTIAL.
    src = """
func void main() {
  int s = 0;
  for (int i = 0; i < 3; i = i + 1) {
    s += i;
    print(s);
  }
}
"""
    report = DcaAnalyzer(compile_program(src), TIERED).analyze()
    result = report.loop("main.L0")
    assert result.verdict == "excluded-io"
    assert result.tier == TIER_SEQUENTIAL
    assert result.pipeline_plan is None


def test_tiering_off_leaves_tiers_unset(monkeypatch):
    monkeypatch.delenv("REPRO_TIERING", raising=False)
    report = DcaAnalyzer(compile_program(CURSOR)).analyze()
    assert report.tiering is False
    assert all(r.tier is None for r in report.results.values())


def test_max_pipeline_stages_validated():
    with pytest.raises(ValueError):
        DcaAnalyzer(
            compile_program(CURSOR), AnalysisConfig(max_pipeline_stages=1)
        )


def test_max_pipeline_stages_bounds_plan():
    report = DcaAnalyzer(
        compile_program(CURSOR),
        AnalysisConfig(tiering=True, max_pipeline_stages=2),
    ).analyze()
    plan = report.loop("main.L1").pipeline_plan
    assert plan is not None and len(plan["stages"]) == 2


def test_tier_counts_and_stage_timing():
    report = DcaAnalyzer(compile_program(CURSOR), TIERED).analyze()
    counts = report.tier_counts()
    assert sum(counts.values()) == len(report.results)
    assert "tiering" in report.stage_times_ms


# -- schema-2 serialization ---------------------------------------------------


def test_tiered_report_serializes_schema_2():
    report = DcaAnalyzer(compile_program(CURSOR), TIERED).analyze()
    data = report.to_dict()
    assert data["report_schema_version"] == REPORT_SCHEMA_VERSION
    assert "tier_counts" in data
    loop = data["loops"]["main.L1"]
    verdict = loop["verdict"]
    assert verdict["value"] == "non-commutative"
    assert verdict["tier"] == TIER_PIPELINE
    assert verdict["decided_by"] == "dynamic"
    assert isinstance(verdict["used_specs"], bool)
    # The flat schema-1 aliases are gone from schema 2.
    assert "is_commutative" not in loop
    assert "decided_by" not in loop


def test_untiered_report_has_no_schema_marker():
    report = DcaAnalyzer(
        compile_program(CURSOR), AnalysisConfig(tiering=False)
    ).analyze()
    data = report.to_dict()
    assert "report_schema_version" not in data
    assert "tier_counts" not in data
    assert isinstance(data["loops"]["main.L1"]["verdict"], str)


def test_cache_payload_stays_schema_1():
    report = DcaAnalyzer(compile_program(CURSOR), TIERED).analyze()
    payload = report.loop("main.L1").to_payload()
    assert isinstance(payload["verdict"], str)
    assert "tier" not in payload


def test_summary_renders_tier_tags():
    report = DcaAnalyzer(compile_program(CURSOR), TIERED).analyze()
    text = report.summary()
    assert "[PIPELINE(stages=" in text


# -- fingerprint gating -------------------------------------------------------


def test_fingerprint_unchanged_when_tiering_off(monkeypatch):
    monkeypatch.delenv("REPRO_TIERING", raising=False)

    base = AnalysisConfig()
    off = AnalysisConfig(tiering=False)
    assert base.fingerprint() == off.fingerprint()


def test_fingerprint_changes_when_tiering_on(monkeypatch):
    monkeypatch.delenv("REPRO_TIERING", raising=False)

    base = AnalysisConfig()
    on = AnalysisConfig(tiering=True)
    assert base.fingerprint() != on.fingerprint()
    # ... and the stage bound participates once tiering is on.
    assert (
        AnalysisConfig(tiering=True, max_pipeline_stages=3).fingerprint()
        != on.fingerprint()
    )
    # ... but is inert while tiering is off.
    assert (
        AnalysisConfig(max_pipeline_stages=3).fingerprint()
        == base.fingerprint()
    )


def test_analyzer_fingerprint_matches_config(monkeypatch):
    monkeypatch.delenv("REPRO_TIERING", raising=False)
    config = AnalysisConfig(tiering=True, specs=False)
    analyzer = DcaAnalyzer(compile_program(CURSOR), config)
    assert analyzer.config.fingerprint() == config.fingerprint()


# -- executor integration -----------------------------------------------------


def test_simulator_uses_pipeline_plan():
    from repro.parallel import ParallelSimulator

    module = compile_program(CURSOR)
    report = DcaAnalyzer(compile_program(CURSOR), TIERED).analyze()
    plan = report.loop("main.L1").pipeline_plan
    sim = ParallelSimulator(module)
    speedup = sim.simulate(
        ["main.L1"],
        min_coverage=0.0,
        drop_unprofitable=False,
        pipeline_plans={"main.L1": plan},
    )
    detail = speedup.loops["main.L1"]
    assert detail.mode == "pipeline"
    assert "[pipeline]" in speedup.summary()
