"""Observability overhead — disabled hooks must be (near) free.

Every per-execution instrumentation site in the pipeline guards on the
observability context's ``enabled`` flag, so a disabled context should
cost one attribute check on the execution hot path.  Spans are coarse
(per stage, loop, schedule): a disabled context hands out a span that
only reads the clock, since that span's duration is the recorded stage
or schedule time.  This harness verifies the claim empirically on a
PLDS subset:

* **baseline** — the pipeline with the per-execution hooks surgically
  removed (``Interpreter.run`` and ``CodegenExecutor.run`` without the
  ``counted_run`` call), i.e. the pre-observability executors;
* **disabled** — the shipped pipeline with observability off (the
  default for every user who never asks for a trace).

Wall time is noisy under CI, so the two sides are measured in
interleaved reps, alternating which side goes first, so that drift hits
both alike, over every one of ``MAX_ROUNDS`` rounds; the verdict compares
the minima pooled over all reps.  A lucky single round therefore cannot
pass the 2% budget on noise.

The harness also runs one benchmark with observability *enabled* and
reports the per-stage cost so the price of tracing is on the record.
"""

from __future__ import annotations

import time

from conftest import format_table

import repro.obs as obs
from repro.benchsuite import PLDS_BENCHMARKS
from repro.api import AnalysisConfig
from repro.core import DcaAnalyzer
from repro.interp.codegen import CodegenExecutor
from repro.interp.interpreter import Interpreter
from repro.interp.values import MiniCRuntimeError

#: Cheap-but-representative PLDS subset (~0.7 s per full-suite pass).
SUBSET_NAMES = ("mcf", "twolf", "otter")

#: Overhead budget for disabled observability.
MAX_OVERHEAD = 0.02
REPS_PER_ROUND = 3
MAX_ROUNDS = 5


def _no_hook_run(self, entry="main", args=None):
    """``Interpreter.run`` without the ``counted_run`` call."""
    if entry not in self.module.functions:
        raise MiniCRuntimeError(f"no function named {entry!r}")
    return self._call_function(entry, list(args or []))


def _no_hook_codegen_run(self, entry="main", args=None):
    """``CodegenExecutor.run`` without the ``counted_run`` call."""
    cf = self.program.functions.get(entry)
    if cf is None:
        raise MiniCRuntimeError(f"no function named {entry!r}")
    args = list(args or [])
    if len(args) != cf.nparams:
        raise MiniCRuntimeError(
            f"{entry} expects {cf.nparams} args, got {len(args)}"
        )
    return cf.pyfunc(self, *args)


def _subset():
    by_name = {b.name: b for b in PLDS_BENCHMARKS}
    return [by_name[name] for name in SUBSET_NAMES]


def _analyze_all(benches, modules):
    for bench in benches:
        DcaAnalyzer(
            modules[bench.name],
            AnalysisConfig(
                entry=bench.entry,
                rtol=bench.rtol,
                liveout_policy=bench.liveout_policy,
            ),
        ).analyze()


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_disabled_obs_overhead(benchmark, capsys, monkeypatch):
    assert not obs.is_enabled(), "overhead run requires the disabled default"
    benches = _subset()
    modules = {b.name: b.compile(fresh=True) for b in benches}

    def run():
        _analyze_all(benches, modules)

    def baseline_rep():
        # The pipeline with the per-execution hooks stripped.
        with monkeypatch.context() as patch:
            patch.setattr(Interpreter, "run", _no_hook_run)
            patch.setattr(CodegenExecutor, "run", _no_hook_codegen_run)
            return _timed(run)

    def measure_round():
        # Interleaved reps, alternating which side goes first.
        baseline, disabled = [], []
        sides = [(baseline, baseline_rep), (disabled, lambda: _timed(run))]
        for rep in range(REPS_PER_ROUND):
            for times, measure in sides if rep % 2 else sides[::-1]:
                times.append(measure())
        return min(baseline), min(disabled)

    # Warm-up pass (imports, caches, branch predictors).
    run()

    rounds = [benchmark.pedantic(measure_round, rounds=1, iterations=1)]
    rounds += [measure_round() for _ in range(MAX_ROUNDS - 1)]
    baseline = min(b for b, _ in rounds)
    disabled = min(d for _, d in rounds)
    ratio = disabled / baseline

    rows = [
        (i + 1, f"{b:.4f}", f"{d:.4f}", f"{(d / b - 1.0) * 100:+.2f}%")
        for i, (b, d) in enumerate(rounds)
    ]
    rows.append(
        ("pooled", f"{baseline:.4f}", f"{disabled:.4f}",
         f"{(ratio - 1.0) * 100:+.2f}%")
    )
    table = format_table(
        ("Round", "Baseline(s)", "Disabled(s)", "Overhead"), rows
    )
    with capsys.disabled():
        print("\n== Disabled-observability overhead "
              f"(PLDS subset: {', '.join(SUBSET_NAMES)}) ==")
        print(table)

    assert ratio < 1.0 + MAX_OVERHEAD, (
        f"disabled observability costs {(ratio - 1.0) * 100:.2f}% "
        f"(budget {MAX_OVERHEAD * 100:.0f}%) on the minima of "
        f"{len(rounds) * REPS_PER_ROUND} interleaved reps per side"
    )


def test_enabled_obs_cost_on_record(capsys):
    """Not an assertion on speed — documents what tracing costs."""
    bench = _subset()[1]  # twolf: mid-sized, exercises the dynamic stage
    module = bench.compile(fresh=True)
    start = time.perf_counter()
    with obs.enabled() as ctx:
        report = DcaAnalyzer(
            module,
            AnalysisConfig(
                entry=bench.entry,
                rtol=bench.rtol,
                liveout_policy=bench.liveout_policy,
            ),
        ).analyze()
        spans = len(ctx.tracer.spans)
        instructions = ctx.metrics.value("interp.instructions")
    enabled_ms = (time.perf_counter() - start) * 1000.0

    rows = [
        (stage, f"{ms:.2f}")
        for stage, ms in sorted(report.stage_times_ms.items())
    ]
    with capsys.disabled():
        print(f"\n== Enabled-observability cost ({bench.name}) ==")
        print(format_table(("Stage", "ms"), rows))
        print(
            f"total {enabled_ms:.1f} ms, {spans} spans, "
            f"{instructions} interpreted instructions"
        )

    assert spans > 0
    assert instructions > 0
    assert set(report.stage_times_ms) >= {"selection", "golden", "dynamic"}
    assert not obs.is_enabled()
