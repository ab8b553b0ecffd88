"""Codegen execution backend gate over the PLDS + NPB suite.

Two properties of ``--exec-backend codegen``:

* **Zero drift** — with timing injected to zero, the codegen backend's
  report is byte-for-byte identical to the interpreter's on every
  benchmark: same verdicts, same provenance, same step counts, same
  snapshot digests, same JSON.  This runs at the default schedule
  preset and each benchmark's own liveout policy.
* **Wall speedup** — the whole-suite analyze pipeline must run at least
  5x faster than the tree-walking interpreter.  The timed configuration
  is replay-rich (identity + reverse + 16 random schedules), skips the
  static pre-filter, and uses the ``eventual`` liveout policy so the
  replay loop — the part the backend accelerates — dominates instead of
  the per-``rt_verify`` heap-snapshot capture that ``strict`` pays
  equally on every backend.  The warmup pass also populates the on-disk
  artifact cache, so the timed codegen pass loads marshalled code
  objects instead of re-lowering each module (the cache is keyed by
  module digest, and ``bench.compile(fresh=True)`` builds fresh module
  objects each pass, which defeats the in-memory memo by design).
"""

from __future__ import annotations

import time

from conftest import analyze_suite, format_table

import repro.obs as obs
from repro.core.schedules import ScheduleConfig

MIN_SPEEDUP = 5.0
#: Testing schedules for the timed gate: identity + reverse + 16 randoms.
GATE_RANDOM_SCHEDULES = 16


def _zero():
    return 0.0


def test_codegen_backend_zero_drift(capsys):
    with obs.disabled(clock=_zero):
        interp = analyze_suite(exec_backend="interp")
        codegen = analyze_suite(exec_backend="codegen")
    rows = []
    for name, report in interp.items():
        other = codegen[name]
        drift = "identical" if report.to_json() == other.to_json() else "DRIFT"
        rows.append((name, len(report.results), report.schedule_executions, drift))
    with capsys.disabled():
        print("\n== Exec backend: interp vs codegen ==")
        print(format_table(("Benchmark", "loops", "executions", "report"), rows))
    drifted = [name for name, *_, drift in rows if drift != "identical"]
    assert not drifted, f"codegen backend drifted on: {drifted}"


def test_codegen_backend_wall_speedup(capsys, tmp_path, monkeypatch):
    import repro.core.schedule_engine as engine
    import repro.interp.codegen as codegen
    from repro.interp.codegen import CODEGEN_CACHE_ENV, codegen_stats

    monkeypatch.setenv(CODEGEN_CACHE_ENV, str(tmp_path / "artifacts"))
    # Programs memoized in process by earlier tests never reach this
    # test's fresh artifact dir; evicted later, they would recompile in
    # the timed pass.  Start from empty memos, as a fresh process would.
    codegen._MODULE_CACHE.clear()
    engine._CODEGEN_BLOB_CACHE.clear()

    def run(exec_backend):
        with obs.disabled(clock=_zero):
            return analyze_suite(
                exec_backend=exec_backend,
                schedules=ScheduleConfig.default(n_random=GATE_RANDOM_SCHEDULES),
                static_filter=False, liveout_policy="eventual",
            )

    # Warm both paths (pyc, analysis caches, codegen disk artifacts)
    # before timing.  The warmup must use the gate config: with the
    # static pre-filter off, the analyzer instruments loops the filter
    # would have skipped, and those instrumented modules need their
    # artifacts on disk before the timed pass.
    run("interp")
    run("codegen")

    start = time.perf_counter()
    run("interp")
    interp_s = time.perf_counter() - start

    before = dict(codegen_stats())
    start = time.perf_counter()
    run("codegen")
    codegen_s = time.perf_counter() - start
    after = codegen_stats()

    speedup = interp_s / codegen_s if codegen_s else float("inf")
    with capsys.disabled():
        print(
            "\n== Codegen backend wall speedup: interp %.2fs / codegen %.2fs "
            "= %.2fx (gate %.1fx, %d testing schedules, eventual liveout) =="
            % (interp_s, codegen_s, speedup, MIN_SPEEDUP,
               2 + GATE_RANDOM_SCHEDULES)
        )
    # The warmup pass populated the artifact store; the timed pass must
    # have been replay-bound, not compile-bound.
    compiles = after["compiles"] - before["compiles"]
    assert compiles == 0, (
        f"timed codegen pass recompiled {compiles} modules despite a warm "
        f"artifact cache"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"--exec-backend codegen delivered only {speedup:.2f}x over the "
        f"interpreter (interp {interp_s:.2f}s, codegen {codegen_s:.2f}s)"
    )
