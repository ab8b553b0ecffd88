"""Cross-subsystem observability tests.

Covers the merge matrix (worker telemetry absorbed through
``Tracer.absorb`` / ``MetricsRegistry.merge`` while the codegen exec
backend and the process schedule backend are active together), the
observed codegen/interp counter parity, the cache-counter
reconciliation against ``CacheAccounting``, and the batch driver's
guarantee that failed programs still appear in the merged trace.
"""

import pytest

import repro.obs as obs
from repro.api import AnalysisConfig, AnalysisSession
from repro.core.dca import DcaAnalyzer
from repro.driver import compile_program
from repro.batch import (
    STATUS_OK,
    STATUS_WORKER_LOST,
    ProgramOutcome,
    _absorb_or_flush,
)

PROGRAM = """
func void main() {
  int[] data = new int[16];
  for (int i = 0; i < 16; i = i + 1) { data[i] = i * 3; }
  int s = 0;
  for (int j = 0; j < 16; j = j + 1) { s += data[j]; }
  print(s);
}
"""


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(PROGRAM)
    return str(path)


# -- merge matrix: process schedule backend x codegen exec backend -------------


def test_worker_telemetry_merges_under_process_and_codegen(program_file):
    config = AnalysisConfig(
        backend="process", jobs=2, exec_backend="codegen",
        static_filter=False,
    )
    try:
        with AnalysisSession(config) as session:
            report, ctx = session.profile(
                open(program_file).read(), source_path=program_file
            )
    finally:
        obs.disable()
    assert report.schedule_executions > 0

    # Tracer.absorb: worker spans land on nonzero lanes next to the
    # coordinator's lane 0.
    lanes = {span.lane for span in ctx.tracer.spans}
    assert 0 in lanes
    assert lanes - {0}, "expected worker spans on their own lanes"

    # MetricsRegistry.merge: worker-side interpreter counters reach the
    # coordinator registry alongside coordinator-side scheduler ones.
    counters = ctx.metrics.to_dict()["counters"]
    assert counters["interp.instructions"] > 0
    assert counters["schedule.tasks_submitted"] == report.schedule_executions
    # Full observability runs the requested codegen backend, which
    # publishes the interpreter's per-run counters itself: no fallback.
    assert counters["exec.backend.codegen"] >= 2
    assert not [name for name in counters if name.startswith("exec.fallback.")]


def test_merged_totals_match_serial_run(program_file):
    source = open(program_file).read()

    def instructions(config):
        try:
            with AnalysisSession(config) as session:
                _report, ctx = session.profile(
                    source, source_path=program_file
                )
            return ctx.metrics.to_dict()["counters"]["interp.instructions"]
        finally:
            obs.disable()

    serial = instructions(AnalysisConfig(static_filter=False))
    merged = instructions(
        AnalysisConfig(backend="process", jobs=2, static_filter=False)
    )
    assert merged == serial


#: A commutative reduction plus a last-writer loop whose perturbed
#: schedules abort on a live-out mismatch mid-run.
PARITY_PROGRAM = """
func void main() {
  int[] data = new int[12];
  for (int i = 0; i < 12; i = i + 1) { data[i] = i * 5 % 7; }
  int s = 0;
  for (int j = 0; j < 12; j = j + 1) { s += data[j]; }
  int last = 0;
  for (int k = 0; k < 12; k = k + 1) { last = data[k]; }
  print(s, last);
}
"""


def _zero():
    return 0.0


@pytest.mark.parametrize("backend,jobs", [("serial", None), ("process", 2)])
def test_observed_codegen_matches_interp(backend, jobs):
    # An enabled obs context observes the backend that was asked for:
    # codegen runs (no fallback) and publishes exactly the interpreter's
    # analysis counters, and the report is unchanged.
    def run(exec_backend):
        with obs.enabled(clock=_zero) as ctx:
            report = DcaAnalyzer(
                compile_program(PARITY_PROGRAM),
                AnalysisConfig(
                    static_filter=False,
                    backend=backend,
                    jobs=jobs,
                    exec_backend=exec_backend,
                ),
            ).analyze()
            counters = ctx.metrics.to_dict()["counters"]
        analysis = {
            name: value
            for name, value in counters.items()
            if name.startswith(("dca.", "interp."))
        }
        return report.to_json(), analysis, counters

    interp_json, interp_counters, _ = run("interp")
    codegen_json, codegen_counters, counters = run("codegen")
    assert codegen_json == interp_json
    assert codegen_counters == interp_counters
    assert interp_counters["dca.permutes"] > 0
    assert interp_counters["dca.snapshots"] > 0
    assert counters["exec.backend.codegen"] >= 2
    assert not [name for name in counters if name.startswith("exec.fallback.")]


# -- one clock: every recorded duration is its span's -------------------------


def _span_ms(ctx, name, **args):
    """The duration of the one recorded ``name`` span whose args include
    ``args``, from its own ``dur_us``."""
    (span,) = [
        s for s in ctx.tracer.spans
        if s.name == name and args.items() <= s.args.items()
    ]
    return span.dur_us / 1000.0


def test_stage_and_schedule_times_are_span_durations():
    with obs.enabled() as ctx:
        report = DcaAnalyzer(
            compile_program(PROGRAM),
            AnalysisConfig(
                static_filter=False, backend="serial", tiering=True,
            ),
        ).analyze()
    assert list(report.stage_times_ms) == [
        "selection", "profile", "golden", "dynamic", "tiering",
    ]
    for name, ms in report.stage_times_ms.items():
        assert ms == _span_ms(ctx, f"dca.{name}")
    timed = 0
    for label, result in report.results.items():
        for schedule, ms in result.cost.schedule_times_ms.items():
            assert ms == _span_ms(
                ctx, "dca.schedule", loop=label, schedule=schedule
            )
            timed += 1
    assert timed == report.schedule_executions > 0


def test_batch_program_wall_is_its_span(program_file):
    from repro.batch import ProgramSpec, analyze_program_spec

    config = AnalysisConfig(backend="serial", cache_mode="off")
    with obs.enabled() as ctx:
        outcome = analyze_program_spec(config, ProgramSpec(program_file), 0)
    assert outcome.status == STATUS_OK
    assert outcome.wall_ms == _span_ms(ctx, "batch.program")


def test_baseline_wall_times_are_span_durations():
    config = AnalysisConfig(cache_mode="off", ledger_dir="off")
    with obs.enabled() as ctx, AnalysisSession(config) as session:
        outcome = session.detect(PROGRAM)
    costs = outcome.costs
    assert costs["profile"]["wall_ms"] == _span_ms(ctx, "baseline.profile")
    for name in outcome.detector_names:
        assert costs[name]["wall_ms"] == _span_ms(
            ctx, "baseline.detect", detector=name
        )


# -- cache counters reconcile with CacheAccounting -----------------------------


def test_cache_registry_counters_reconcile_with_accounting(
    program_file, tmp_path
):
    source = open(program_file).read()
    config = AnalysisConfig(
        cache_dir=str(tmp_path / "cache"), static_filter=False
    )

    def run():
        try:
            with AnalysisSession(config) as session:
                return session.profile(source, source_path=program_file)
        finally:
            obs.disable()

    for expectation in ("cold", "warm"):
        report, ctx = run()
        accounting = report.cache
        counters = ctx.metrics.to_dict()["counters"]
        assert accounting.enabled
        assert counters.get("cache.hits", 0) == accounting.hits
        assert counters.get("cache.misses", 0) == accounting.misses
        assert counters.get("cache.invalidations", 0) == (
            accounting.invalidations
        )
        assert counters.get("cache.stores", 0) == accounting.stores
        assert counters.get("cache.lookups", 0) == (
            accounting.hits + accounting.misses
        )
        if expectation == "cold":
            assert accounting.misses > 0 and accounting.hits == 0
        else:
            assert accounting.hits > 0 and accounting.misses == 0


def test_cache_store_lifetime_stats_match_session_traffic(tmp_path):
    from repro.cache import AnalysisCache

    directory = str(tmp_path / "cache")
    with AnalysisCache(directory) as cache:
        key = dict(module_digest="m" * 16, loop_id="L0", fingerprint="fp")
        assert cache.lookup(**key) is None
        cache.store(payload={"verdict": "commutative", "loop": "L0"}, **key)
        assert cache.lookup(**key) is not None
        stats = cache.stats()
        assert stats["lifetime_lookups"] == 2
        assert stats["lifetime_hits"] == 1
        assert stats["lifetime_misses"] == 1
        assert stats["lifetime_stores"] == 1
        assert stats["lifetime_hit_rate"] == pytest.approx(0.5)
    # Counters survive the close() flush into sqlite meta.
    with AnalysisCache(directory, mode="ro") as reopened:
        stats = reopened.stats()
    assert stats["lifetime_lookups"] == 2
    assert stats["lifetime_hits"] == 1


# -- batch flush guarantee -----------------------------------------------------


def outcome(status, obs_payload=None):
    return ProgramOutcome(
        path="lost.mc", index=3, status=status, error="pool broke",
        wall_ms=5.0, obs=obs_payload,
    )


def test_worker_lost_outcome_gets_synthetic_span_and_event():
    ctx = obs.enable()
    try:
        _absorb_or_flush(ctx, outcome(STATUS_WORKER_LOST), lane=4)
        (span,) = ctx.tracer.spans
        assert span.name == "batch.program"
        assert span.lane == 4
        assert span.args["synthetic"] is True
        assert span.args["status"] == STATUS_WORKER_LOST
        (event,) = ctx.events.events
        assert event.severity == "error"
        assert event.kind == "batch.telemetry-lost"
        assert "lost.mc" in event.message
    finally:
        obs.disable()


def test_shipped_payload_absorbs_instead_of_synthesizing():
    # Round trip: what a worker records, ObsContext.payload() ships and
    # the coordinator absorbs, keeping names, args, parent links,
    # durations, metrics and events.
    ticks = iter(range(100))
    worker = obs.ObsContext(enabled=True, clock=lambda: next(ticks) / 1e3)
    with worker.span("repro.compile", path="p.mc"):
        with worker.span("dca.schedule", loop="L0") as sp:
            sp.set(instructions=7)
    worker.count("interp.runs", 2)
    worker.observe("dca.permute.len", 4)
    worker.event("warning", "dca.note", "kept", provenance="test", loop="L0")
    payload = worker.payload()
    assert set(payload) == {"pid", "spans", "metrics", "events"}

    ctx = obs.enable()
    try:
        out = outcome(STATUS_OK, obs_payload=payload)
        _absorb_or_flush(ctx, out, lane=2)
        assert out.obs is None, "payload must be dropped after absorption"
        outer, inner = sorted(ctx.tracer.spans, key=lambda s: s.depth)
        assert (outer.name, outer.args) == ("repro.compile", {"path": "p.mc"})
        assert (inner.name, inner.args) == (
            "dca.schedule", {"loop": "L0", "instructions": 7}
        )
        assert outer.parent is None and inner.parent == outer.sid
        assert inner.path == ("repro.compile", "dca.schedule")
        assert {s.lane for s in ctx.tracer.spans} == {2}
        assert [s.dur_us for s in (outer, inner)] == [
            s.dur_us for s in sorted(worker.tracer.spans, key=lambda s: s.depth)
        ]
        assert ctx.metrics.to_dict() == worker.metrics.to_dict()
        assert [e.to_dict() for e in ctx.events.events] == [
            e.to_dict() for e in worker.events.events
        ]
    finally:
        obs.disable()


def test_ok_outcome_without_payload_stays_silent():
    ctx = obs.enable()
    try:
        _absorb_or_flush(ctx, outcome(STATUS_OK), lane=1)
        assert not ctx.tracer.spans
        assert not ctx.events.events
    finally:
        obs.disable()


def test_disabled_context_drops_payload_quietly():
    ctx = obs.current()
    assert not ctx.enabled
    out = outcome(STATUS_WORKER_LOST, obs_payload={"spans": []})
    _absorb_or_flush(ctx, out, lane=1)
    assert out.obs is None


def test_pooled_batch_trace_includes_failed_programs(tmp_path):
    good = tmp_path / "good.mc"
    good.write_text(PROGRAM)
    bad = tmp_path / "bad.mc"
    bad.write_text("func void main() { this is not minic }")

    config = AnalysisConfig(backend="process", jobs=2)
    ctx = obs.enable()
    try:
        with AnalysisSession(config) as session:
            result = session.batch(paths=[str(good), str(bad)])
        statuses = {o.path: o.status for o in result.outcomes}
        assert statuses[str(good)] == STATUS_OK
        assert statuses[str(bad)] != STATUS_OK
        # Both programs own a lane in the merged trace — the parse
        # failure ships its (error-bearing) telemetry too.
        lanes = {span.lane for span in ctx.tracer.spans}
        assert {1, 2} <= lanes
        counters = ctx.metrics.to_dict()["counters"]
        assert counters["batch.outcome.ok"] == 1
        assert sum(
            v for k, v in counters.items() if k.startswith("batch.outcome.")
        ) == 2
    finally:
        obs.disable()
