"""Schedule-engine tests: work units, backends, faults, determinism.

The engine's contract (see ``repro.core.schedule_engine``) is that the
process backend is *indistinguishable* from the serial backend in every
report field — verdicts, provenance, reasons, counters, digests — with
timing zeroed by an injected observability clock.  These tests pin that
contract on the example programs, exercise the fault-injection hook on
both backends, and check the schedule-execution accounting invariant
the ``--json`` metrics section exposes.
"""

import glob
import json
import os
import pickle
import subprocess
import sys
import textwrap
import threading

import pytest

import repro.obs as obs
from repro.api import AnalysisConfig
from repro.core.dca import DcaAnalyzer
from repro.core.report import (
    DECIDED_DYNAMIC,
    DECIDED_STATIC,
    DECIDED_STATIC_SPECS,
    RUNTIME_FAULT,
)
from repro.core.schedule_engine import (
    FAILED_FAULT,
    FAILED_INVOCATIONS,
    FAILED_LIVEOUT,
    FAULT_STYLES,
    LoopPlan,
    ProcessScheduleEngine,
    ScheduleOutcome,
    SerialScheduleEngine,
    create_engine,
    execute_task,
    outcome_failure,
    outcome_fails,
    should_test,
)
from repro.core.schedules import ScheduleConfig
from repro.driver import compile_program
from repro.ir.instructions import Const, Mov, Reg

EXAMPLES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "examples", "*.mc")))

REDUCTION_SRC = """
func void main() {
  int[] a = new int[12];
  for (int i = 0; i < 12; i = i + 1) {
    a[i] = i * 3 + 1;
  }
  int total = 0;
  for (int i = 0; i < 12; i = i + 1) {
    total += a[i];
  }
  print(total);
}
"""

LAST_WRITER_SRC = """
func void main() {
  int last = 0;
  for (int i = 0; i < 8; i = i + 1) {
    last = i * 7;
  }
  print(last);
}
"""


def _zero():
    return 0.0


def _analyze(source, fault_injection=None, **config):
    config.setdefault("static_filter", False)
    # Pin the backend so ambient REPRO_SCHEDULE_* vars (e.g. the CI
    # process-backend job) cannot flip the "serial" side of a comparison.
    config.setdefault("backend", "serial")
    with obs.disabled(clock=_zero):
        return DcaAnalyzer(
            compile_program(source),
            AnalysisConfig(**config),
            fault_injection=fault_injection,
        ).analyze()


# -- engine construction -------------------------------------------------------


@pytest.fixture
def clean_engine_env(monkeypatch):
    monkeypatch.delenv("REPRO_SCHEDULE_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_SCHEDULE_JOBS", raising=False)


def test_create_engine_defaults_to_serial(clean_engine_env):
    assert isinstance(create_engine(), SerialScheduleEngine)


def test_jobs_implies_process_backend(clean_engine_env):
    engine = create_engine(jobs=3)
    assert isinstance(engine, ProcessScheduleEngine)
    assert engine.jobs == 3


def test_create_engine_rejects_unknown_backend():
    with pytest.raises(ValueError):
        create_engine(backend="threads")


def test_env_backend_resolution(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULE_BACKEND", "process")
    monkeypatch.setenv("REPRO_SCHEDULE_JOBS", "2")
    engine = create_engine()
    assert isinstance(engine, ProcessScheduleEngine)
    assert engine.jobs == 2
    # Explicit arguments beat the environment.
    assert isinstance(
        create_engine(backend="serial"), SerialScheduleEngine
    )


# -- shared decision helpers ---------------------------------------------------


def _outcome(**kw):
    base = dict(label="L", schedule_name="reverse", index=1)
    base.update(kw)
    return ScheduleOutcome(**base)


def test_outcome_fails_conditions():
    assert not outcome_fails(_outcome(invocation_count=3), 3)
    assert outcome_fails(_outcome(status="fault", invocation_count=3), 3)
    assert outcome_fails(_outcome(status="worker-lost", invocation_count=3), 3)
    assert outcome_fails(_outcome(violations=1, invocation_count=3), 3)
    assert outcome_fails(_outcome(outcome_ok=False, invocation_count=3), 3)
    assert outcome_fails(_outcome(invocation_count=2), 3)
    # A fail-fast mismatch abort reports via violations, not status.
    assert outcome_fails(
        _outcome(status="mismatch", violations=1, invocation_count=3), 3
    )


def test_outcome_failure_names_the_first_failed_condition():
    assert outcome_failure(_outcome(invocation_count=3), 3) is None
    assert outcome_failure(
        _outcome(status="worker-lost", violations=1, invocation_count=2), 3
    ) == FAILED_FAULT
    assert outcome_failure(
        _outcome(outcome_ok=False, invocation_count=2), 3
    ) == FAILED_LIVEOUT
    assert outcome_failure(
        _outcome(status="mismatch", violations=1, invocation_count=3), 3
    ) == FAILED_LIVEOUT
    assert outcome_failure(_outcome(invocation_count=2), 3) == FAILED_INVOCATIONS


def test_should_test_requires_clean_identity_and_two_trips():
    plan = LoopPlan(label="L", expected_invocations=1)
    plan.tasks = [None]
    good = _outcome(index=0, schedule_name="identity", invocation_count=1, max_trip=4)
    assert should_test(plan, good)
    assert not should_test(
        plan, _outcome(index=0, invocation_count=1, max_trip=1)
    )
    assert not should_test(
        plan, _outcome(index=0, invocation_count=2, max_trip=4)
    )


# -- cross-backend report identity ---------------------------------------------


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
def test_process_reports_byte_identical_to_serial(path):
    with open(path) as handle:
        source = handle.read()
    serial = _analyze(source)
    process = _analyze(source, backend="process", jobs=2)
    assert serial.to_json() == process.to_json()
    assert serial.backend == "serial" and process.backend == "process"
    # backend/jobs never leak into the serialized report
    assert "backend" not in json.loads(serial.to_json())


def test_speculative_executions_are_discarded():
    """A non-commutative loop short-circuits serially; the process
    backend may speculatively run later schedules, but consumed counters
    and tested-schedule lists must match the serial short-circuit."""
    serial = _analyze(LAST_WRITER_SRC)
    process = _analyze(LAST_WRITER_SRC, backend="process", jobs=4)
    assert serial.to_json() == process.to_json()
    (loop,) = [r for r in serial.results.values() if r.failed_schedule]
    assert loop.verdict == "non-commutative"
    assert serial.schedules_skipped.get("short-circuit")


def test_snapshot_digests_cross_backend_and_schedule():
    serial = _analyze(REDUCTION_SRC)
    process = _analyze(REDUCTION_SRC, backend="process", jobs=2)
    for label, result in serial.results.items():
        other = process.results[label]
        assert result.schedule_digests == other.schedule_digests
        if result.decided_by == DECIDED_DYNAMIC and result.verdict == "commutative":
            # Integer program: every passing schedule reproduced the
            # golden live-outs exactly, so the content digests agree.
            digests = set(result.schedule_digests.values())
            assert len(digests) == 1 and "" not in digests


def test_mismatch_detail_populated_and_identical():
    serial = _analyze(LAST_WRITER_SRC)
    process = _analyze(LAST_WRITER_SRC, backend="process", jobs=2)
    (loop,) = [r for r in serial.results.values() if r.failed_schedule]
    detail = loop.mismatch_detail
    assert detail and detail["loop"] == loop.label
    assert detail["actual_digest"] and detail["expected_digest"]
    assert detail["actual_digest"] != detail["expected_digest"]
    assert process.results[loop.label].mismatch_detail == detail


# -- work units ----------------------------------------------------------------


def test_work_units_pickle_round_trip():
    module = compile_program(REDUCTION_SRC)
    analyzer = DcaAnalyzer(module, AnalysisConfig(static_filter=False))
    report = analyzer.analyze()
    # Rebuild a plan the way the analyzer does and round-trip it.
    analyzer2 = DcaAnalyzer(
        compile_program(REDUCTION_SRC), AnalysisConfig(static_filter=False)
    )
    captured = {}
    original_run = analyzer2._engine.run

    def spy(plans):
        captured["plans"] = list(plans)
        return original_run(plans)

    analyzer2._engine.run = spy
    analyzer2.analyze()
    assert captured["plans"]
    for plan in captured["plans"]:
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.label == plan.label
        assert [t.schedule_name for t in clone.tasks] == [
            t.schedule_name for t in plan.tasks
        ]
    assert report.schedule_executions > 0


def test_replay_counts_compile_error_fallback():
    """A test module codegen rejects replays on the interpreter, and each
    replay counts its backend and the fallback like every other run."""

    def rejected():
        module = compile_program(REDUCTION_SRC)
        main = module.functions["main"]
        # Codegen has no literal for bytes; the interpreter just moves it.
        main.blocks[main.entry].instrs.insert(0, Mov(Reg("junk"), Const(b"x")))
        return module

    config = AnalysisConfig(
        static_filter=False, backend="serial", exec_backend="codegen"
    )
    with obs.enabled() as ctx:
        report = DcaAnalyzer(rejected(), config).analyze()
        counters = ctx.metrics.to_dict()["counters"]
    assert report.schedule_executions > 0
    # Profile, golden and every schedule replay fell back.
    assert counters["exec.fallback.compile-error"] == report.executions
    assert counters["exec.backend.interp"] == report.executions
    assert "exec.backend.codegen" not in counters
    reference = DcaAnalyzer(
        rejected(), config.replace(exec_backend="interp")
    ).analyze()
    assert {l: r.verdict for l, r in report.results.items()} == {
        l: r.verdict for l, r in reference.results.items()
    }


#: One loop long enough that its identity replay under the interpreter
#: takes well over 150 ms next to a spinning thread.
LONG_LOOP_SRC = """
func void main() {
  int[] a = new int[6000];
  for (int i = 0; i < 6000; i = i + 1) { a[i] = i * 3 % 7 + i / 5; }
  print(a[1]);
}
"""


def test_schedule_cpu_time_counts_only_its_own_thread():
    """``repro serve`` replays schedules on several threads of one
    process: a replay's CPU time must not absorb another thread's."""
    analyzer = DcaAnalyzer(
        compile_program(LONG_LOOP_SRC),
        AnalysisConfig(
            static_filter=False,
            backend="serial",
            exec_backend="interp",
            schedules=ScheduleConfig.identity_only(),
        ),
    )
    plans = []
    run = analyzer._engine.run

    def spy(planned):
        plans.extend(planned)
        return run(planned)

    analyzer._engine.run = spy
    analyzer.analyze()
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            pass

    spinner = threading.Thread(target=spin)
    spinner.start()
    try:
        outcome = execute_task(plans[0].tasks[0], in_process=True)
    finally:
        stop.set()
        spinner.join(timeout=30)
    assert not spinner.is_alive()
    assert outcome.status == "ok"
    assert outcome.wall_ms >= 150.0
    assert outcome.cpu_ms < 0.75 * outcome.wall_ms


# -- faulting workers ----------------------------------------------------------


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("style", FAULT_STYLES)
def test_faulting_schedule_marks_loop_not_analyzer(backend, style):
    """A schedule that raises, OOMs, or kills its worker must resolve to
    a runtime-fault verdict with failed_schedule set — never hang or
    crash the analyzer."""
    report = _analyze(
        REDUCTION_SRC,
        backend=backend,
        jobs=2,
        fault_injection={("main.L1", "reverse"): style},
    )
    result = report.results["main.L1"]
    assert result.verdict == RUNTIME_FAULT
    assert result.failed_schedule == "reverse"
    assert not result.is_commutative
    assert result.reason == "fault under schedule reverse"
    # The other loop is unaffected.
    assert report.results["main.L0"].verdict == "commutative"


def test_fault_reports_identical_across_backends():
    kwargs = dict(fault_injection={("main.L1", "reverse"): "raise"})
    serial = _analyze(REDUCTION_SRC, **kwargs)
    process = _analyze(REDUCTION_SRC, backend="process", jobs=2, **kwargs)
    assert serial.to_json() == process.to_json()


def test_identity_fault_yields_split_mismatch():
    report = _analyze(
        REDUCTION_SRC, fault_injection={("main.L1", "identity"): "raise"}
    )
    result = report.results["main.L1"]
    assert result.verdict == "split-mismatch"
    assert result.failed_schedule == "identity"


# -- accounting invariant (satellite: --json consistency) ----------------------


def _check_accounting(report, n_schedules):
    eligible = sum(
        1
        for r in report.results.values()
        if r.decided_by in (DECIDED_STATIC, DECIDED_STATIC_SPECS,
                            DECIDED_DYNAMIC)
    )
    skipped = sum(report.schedules_skipped.values())
    assert (
        report.schedule_executions + report.static_schedules_saved + skipped
        == eligible * n_schedules
    ), (
        report.schedule_executions,
        report.static_schedules_saved,
        report.schedules_skipped,
        eligible,
    )


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
@pytest.mark.parametrize("static_filter", [True, False])
def test_schedule_execution_accounting_invariant(path, static_filter):
    """executed + statically-saved + skipped == eligible loops × (1 +
    testing schedules), whether loops were decided statically or
    dynamically — the ``schedule_executions`` consistency contract of
    ``repro analyze --json``."""
    with open(path) as handle:
        source = handle.read()
    n_schedules = 1 + len(ScheduleConfig.default().testing_schedules())
    report = _analyze(source, static_filter=static_filter)
    _check_accounting(report, n_schedules)
    # And the JSON metrics section carries the same numbers.
    metrics = json.loads(report.to_json())["metrics"]
    assert metrics["schedule_executions"] == report.schedule_executions
    assert (
        metrics["schedule_executions_saved_static"]
        == report.static_schedules_saved
    )
    assert metrics["schedule_executions_skipped"] == {
        k: report.schedules_skipped[k] for k in sorted(report.schedules_skipped)
    }


# -- worker observability merge ------------------------------------------------


def test_process_backend_merges_worker_obs():
    with obs.enabled() as ctx:
        report = DcaAnalyzer(
            compile_program(REDUCTION_SRC),
            AnalysisConfig(static_filter=False, backend="process", jobs=2),
        ).analyze()
    names = {s.name for s in ctx.tracer.spans}
    assert {"dca.analyze", "dca.dynamic", "dca.loop", "dca.schedule"} <= names
    # Worker spans land on non-coordinator lanes...
    sched_lanes = {s.lane for s in ctx.tracer.spans if s.name == "dca.schedule"}
    assert sched_lanes and 0 not in sched_lanes
    # ...and the single exported Chrome trace keeps one tid per lane.
    trace = ctx.tracer.to_chrome_trace()
    tids = {e["tid"] for e in trace["traceEvents"]}
    assert len(tids) >= 2
    # Worker-recorded metrics merged into the coordinator registry.
    assert (
        ctx.metrics.value("dca.schedule_executions")
        == report.schedule_executions
    )
    assert ctx.metrics.value("dca.snapshots") == report.snapshots_taken


#: Instrument namespaces describing *how* the run executed rather than
#: *what* the analysis computed.  Like wall timestamps and lanes, they
#: legitimately differ between schedule/exec backends (queue depth,
#: pool rebuilds, compile-cache traffic), so the cross-backend identity
#: contract covers everything outside them.
_STRATEGY_PREFIXES = ("schedule.", "exec.", "compile.")


def _analysis_only(named: dict) -> dict:
    return {
        name: value
        for name, value in named.items()
        if not name.startswith(_STRATEGY_PREFIXES)
    }


def test_obs_aggregates_identical_across_backends():
    """With zero clocks, span name/arg aggregates, analysis metrics, and
    events are identical between backends — the obs half of the
    determinism contract (wall timestamps, lanes, and execution-strategy
    counters are presentation/ops only)."""
    def collect(backend, jobs):
        with obs.enabled(clock=_zero) as ctx:
            DcaAnalyzer(
                compile_program(REDUCTION_SRC),
                AnalysisConfig(
                    static_filter=False, backend=backend, jobs=jobs,
                ),
            ).analyze()
            spans = sorted(
                (s.name, tuple(sorted((k, str(v)) for k, v in s.args.items())))
                for s in ctx.tracer.spans
            )
            metrics = {
                kind: _analysis_only(named)
                for kind, named in ctx.metrics.to_dict().items()
            }
            events = [e.to_dict() for e in ctx.events.events]
        return spans, metrics, events

    serial = collect("serial", None)
    process = collect("process", 2)
    assert serial == process


# -- worker death under the process backend ------------------------------------

FIVE_LOOPS_SRC = """
func void main() {
  int[] a = new int[4000];
  int[] b = new int[4000];
  int[] c = new int[4000];
  int[] d = new int[4000];
  int[] e = new int[4000];
  for (int i = 0; i < 4000; i = i + 1) { a[i] = i * 2; }
  for (int i = 0; i < 4000; i = i + 1) { b[i] = i + 3; }
  for (int i = 0; i < 4000; i = i + 1) { c[i] = i * i % 7; }
  for (int i = 0; i < 4000; i = i + 1) { d[i] = i - 1; }
  for (int i = 0; i < 4000; i = i + 1) { e[i] = 5 * i; }
  print(a[7] + b[7] + c[7] + d[7] + e[7]);
}
"""

#: Runs in a child interpreter so a hang fails the test instead of the
#: suite.  ``wait`` is narrowed to one completed future per call (a legal
#: FIRST_COMPLETED answer), which drives the engine through its broken-
#: pool recovery one outcome at a time.  Every pool the engine builds is
#: kept referenced, as a second thread submitting to the shared pool
#: would keep it: a shut-down executor that is still alive cancels its
#: queued futures, and a cancelled future never wakes ``wait``.
_WORKER_DEATH_SCRIPT = textwrap.dedent(
    """
    import faulthandler
    import json
    import sys

    import repro.core.schedule_engine as engine
    from repro.api import AnalysisConfig
    from repro.core.dca import DcaAnalyzer
    from repro.core.schedules import ScheduleConfig
    from repro.driver import compile_program

    faulthandler.dump_traceback_later(110, exit=True)
    real_wait = engine.wait
    built = []

    class KeptPool(engine.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    def one_completed(fs, timeout=None, return_when=engine.FIRST_COMPLETED):
        done, _ = real_wait(fs, timeout=timeout, return_when=return_when)
        first = next(iter(done))
        return {first}, set(fs) - {first}

    engine.wait = one_completed
    engine.ProcessPoolExecutor = KeptPool
    report = DcaAnalyzer(
        compile_program(sys.stdin.read()),
        AnalysisConfig(
            schedules=ScheduleConfig.default(n_random=40),
            static_filter=False,
            backend="process",
            jobs=2,
        ),
        fault_injection={("main.L0", "identity"): "exit"},
    ).analyze()
    print(json.dumps({
        "verdicts": {k: r.verdict for k, r in report.results.items()},
        "reasons": {k: r.reason for k, r in report.results.items()},
    }))
    """
)


def test_worker_death_does_not_hang_process_engine():
    """A worker killed during an identity replay breaks the pool while
    other loops' replays are in flight; their isolated retries pass the
    identity gate and submit perturbing schedules.  Those must run on a
    live pool to completion: the analysis finishes, the killed loop is a
    split-mismatch and every other loop still verifies commutative."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", _WORKER_DEATH_SCRIPT],
        input=FIVE_LOOPS_SRC,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-4000:]
    data = json.loads(result.stdout)
    verdicts = data["verdicts"]
    assert verdicts.pop("main.L0") == "split-mismatch"
    # A schedule left cancelled would merge as "schedule was never
    # executed", a runtime fault: every other loop must be commutative.
    assert len(verdicts) == 4
    assert set(verdicts.values()) == {"commutative"}, data["reasons"]
