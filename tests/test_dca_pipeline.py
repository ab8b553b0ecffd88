"""The DCA stage pipeline: stage order, stage time booking, and
per-analysis state isolation.

``DcaAnalyzer.analyze`` runs a fixed list of named stages; the key order
of ``stage_times_ms`` is part of the serialized report bytes, and every
piece of analysis work must be booked to exactly one stage (the run
ledger's ``wall_ms`` is the sum of the stage times).
"""

import json
import pickle
from pathlib import Path

import pytest

import repro.core.dca as dca
import repro.obs as obs
from repro.analysis.defuse import ReachingDefs
from repro.analysis.liveness import Liveness
from repro.analysis.postdom import ControlDependence
from repro.benchsuite import ALL_BENCHMARKS, by_name
from repro.cache import AnalysisCache
from repro.api import AnalysisConfig
from repro.core.dca import DcaAnalyzer
from repro.driver import compile_program

PROGRAM = """
func void main() {
  int[] a = new int[12];
  int s = 0;
  for (int i = 0; i < 12; i = i + 1) { a[i] = i * 3 % 7; }
  for (int i = 1; i < 12; i = i + 1) { a[i] = a[i] + a[i - 1]; }
  for (int i = 0; i < 12; i = i + 1) { s += a[i]; }
  print(s);
}
"""


ROOT = Path(__file__).resolve().parents[1]


def _zero() -> float:
    return 0.0


@pytest.mark.parametrize("tiering", [False, True])
@pytest.mark.parametrize("static_filter", [False, True])
def test_stage_order_and_spans(static_filter, tiering):
    expected = ["selection", "profile"]
    if static_filter:
        expected.append("static")
    expected += ["golden", "dynamic"]
    if tiering:
        expected.append("tiering")

    analyzer = DcaAnalyzer(
        compile_program(PROGRAM),
        AnalysisConfig(static_filter=static_filter, tiering=tiering),
    )
    with obs.enabled(clock=_zero) as ctx:
        report = analyzer.analyze()

    assert list(report.stage_times_ms) == expected
    assert list(report.metrics_dict()["stage_times_ms"]) == expected
    (root,) = [s for s in ctx.tracer.spans if s.name == "dca.analyze"]
    stage_spans = sorted(
        (s for s in ctx.tracer.spans if s.parent == root.sid),
        key=lambda s: s.sid,
    )
    assert [s.name for s in stage_spans] == [f"dca.{n}" for n in expected]


def test_verify_specs_are_booked_to_golden(monkeypatch):
    """Verify-spec computation runs inside the golden stage: a clock that
    only ``compute_verify_spec`` advances shows up there and nowhere
    else, so no analysis work escapes the stage times."""
    now = [0.0]
    compute = dca.compute_verify_spec

    def ticking(*args, **kwargs):
        now[0] += 1.0
        return compute(*args, **kwargs)

    monkeypatch.setattr(dca, "compute_verify_spec", ticking)
    with obs.disabled(clock=lambda: now[0]):
        report = DcaAnalyzer(
            compile_program(PROGRAM),
            AnalysisConfig(static_filter=False),
        ).analyze()

    assert now[0] == len(report.results) == 3
    assert report.stage_times_ms["golden"] == 3000.0
    assert sum(report.stage_times_ms.values()) == 3000.0


@pytest.mark.parametrize("tiering", [False, True])
def test_repeated_analyze_leaks_no_state(tmp_path, tiering):
    """One analyzer, three passes — plain, cold cache, warm cache — must
    serialize byte-identically: no per-analysis state survives on the
    instance between ``analyze`` calls."""
    analyzer = DcaAnalyzer(
        compile_program(PROGRAM),
        AnalysisConfig(static_filter=False, tiering=tiering),
        source_text=PROGRAM,
    )
    with obs.disabled(clock=_zero), AnalysisCache(str(tmp_path)) as cache:
        plain = analyzer.analyze().to_json()
        analyzer.cache = cache
        cold = analyzer.analyze()
        warm = analyzer.analyze()
    assert cold.cache.stores > 0 and warm.cache.hits > 0
    assert cold.to_json() == plain
    assert warm.to_json() == plain


def test_pristine_functions_build_each_analysis_once(monkeypatch):
    """One tiered ``analyze`` of a multi-loop suite program: the static
    prover, verify specs, iterator separation and tiering all read the
    pristine function's one memo, so each pristine function builds at
    most one ``ReachingDefs``, ``Liveness`` and ``ControlDependence``;
    only the rewritten clones build their own.  The schedule replays'
    module blobs carry no memo."""
    built = []

    def counting(init):
        def wrapped(self, func):
            built.append((type(self), func))
            init(self, func)

        return wrapped

    for cls in (ReachingDefs, Liveness, ControlDependence):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    bench = by_name("em3d")
    analyzer = DcaAnalyzer(
        bench.compile(fresh=True),
        AnalysisConfig(rtol=bench.rtol, tiering=True),
    )
    plans = []

    def capture(batch, run=analyzer._engine.run):
        plans.extend(batch)
        return run(batch)

    monkeypatch.setattr(analyzer._engine, "run", capture)
    report = analyzer.analyze()

    assert report.tier_counts() and plans
    for func in analyzer.module.functions.values():
        for cls in (ReachingDefs, Liveness, ControlDependence):
            assert sum(1 for c, f in built if c is cls and f is func) <= 1
    pristine = {id(f) for f in analyzer.module.functions.values()}
    assert any(id(f) not in pristine for _c, f in built), (
        "the outliner rebuilds liveness on each rewritten clone"
    )
    for plan in plans:
        module = pickle.loads(plan.tasks[0].module_blob)
        for func in module.functions.values():
            assert "_analyses" not in vars(func)


@pytest.mark.parametrize("name", ["histogram", "pointer_chase"])
def test_tiering_off_report_matches_pre_tiering_golden(name):
    """Schema compatibility: a tiering-off (and specs-off) ``--json``
    report is byte-identical to the pre-tiering golden, whatever
    ``REPRO_*`` environment the suite runs under."""
    golden = (ROOT / "benchmarks" / "goldens" / f"pre_tiering_{name}.json")
    source = (ROOT / "examples" / f"{name}.mc").read_text()
    with obs.disabled(clock=_zero):
        report = DcaAnalyzer(
            compile_program(source),
            AnalysisConfig(tiering=False, specs=False),
        ).analyze()
    got = report.to_json() + "\n"
    assert got == golden.read_text(), (
        f"{name}: tiering-off report drifted from the pre-tiering golden"
    )
    assert "report_schema_version" not in json.loads(got)


def test_golden_captures_only_replayed_loops(tmp_path, monkeypatch):
    """The static stage and the cache decide loops before the golden
    run, so golden snapshots only the loops a schedule replays: on a
    cold run the dynamic loop's invocations, on a warm run none.  The
    warm report still equals the cold one."""
    source = (ROOT / "examples" / "specs_annotation.mc").read_text()
    captured = []
    golden = DcaAnalyzer._golden

    def counting(self, state):
        metrics = obs.current().metrics
        before = metrics.value("dca.snapshots")
        golden(self, state)
        captured.append(metrics.value("dca.snapshots") - before)

    monkeypatch.setattr(DcaAnalyzer, "_golden", counting)
    reports = []
    with AnalysisCache(str(tmp_path)) as cache, obs.enabled(clock=_zero):
        for _ in range(2):
            reports.append(
                DcaAnalyzer(
                    compile_program(source),
                    AnalysisConfig(specs=False, tiering=False),
                    cache=cache,
                ).analyze()
            )
    cold, warm = reports
    assert {
        label: result.serialized_decided_by
        for label, result in cold.results.items()
    } == {"main.L0": "static", "main.L1": "dynamic"}
    assert captured == [cold.results["main.L1"].invocations, 0]
    assert (warm.cache.hits, warm.cache.misses) == (1, 0)
    assert warm.to_json() == cold.to_json()


def _programs():
    """Every suite program, fuzz corpus program and example: (name,
    module)."""
    for bench in ALL_BENCHMARKS:
        yield bench.name, bench.compile(fresh=True)
    paths = sorted((ROOT / "tests" / "fuzz" / "corpus").glob("*.mc"))
    for path in paths + sorted((ROOT / "examples").glob("*.mc")):
        yield path.name, compile_program(path.read_text())


@pytest.mark.parametrize("exec_backend", ["interp", "codegen"])
def test_profile_entry_matches_golden_invocations(exec_backend, monkeypatch):
    """Static verdicts and cache lookups are decided from the profile
    run, before the golden run: that is sound only if the profile run
    enters exactly the loops the golden run counts invocations of."""
    seen = []

    def compare(self, state):
        seen.append((
            {l for l in state.specs if l in state.profile.max_trips},
            {l for l in state.specs if state.report.results[l].invocations},
        ))

    monkeypatch.setattr(DcaAnalyzer, "_test_loops", compare)
    for name, module in _programs():
        DcaAnalyzer(
            module,
            AnalysisConfig(
                exec_backend=exec_backend,
                static_filter=False,
                specs=False,
                tiering=False,
            ),
        ).analyze()
        entered, invoked = seen[-1]
        assert entered == invoked, name
    assert len(seen) > len(ALL_BENCHMARKS)
