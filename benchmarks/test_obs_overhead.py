"""Observability overhead — disabled hooks must be (near) free.

Every per-execution instrumentation site in the pipeline guards on the
observability context's ``enabled`` flag, so a disabled context should
cost one attribute check on the execution hot path.  Spans are coarse
(per stage, loop, schedule): a disabled context hands out a span that
only reads the clock, since that span's duration is the recorded stage
or schedule time.  This harness verifies the claim empirically on a
PLDS subset:

* **baseline** — the pipeline with the per-execution hooks surgically
  removed (``DcaRuntime.handle_intrinsic`` without the intrinsic tally
  guard, ``Interpreter.run`` and ``CodegenExecutor.run`` without the
  ``counted_run`` call), i.e. the pre-observability executors;
* **disabled** — the shipped pipeline with observability off (the
  default for every user who never asks for a trace).

Wall time is noisy under CI, so the comparison is paired min-of-N with
retry rounds: the assertion passes as soon as any round sees the
disabled/baseline ratio under the 2% budget.

The harness also runs one benchmark with observability *enabled* and
reports the per-stage cost so the price of tracing is on the record.
"""

from __future__ import annotations

import time

from conftest import format_table

import repro.obs as obs
from repro.benchsuite import PLDS_BENCHMARKS
from repro.core import DcaAnalyzer
from repro.core.instrument import RT_GET, RT_NEXT, RT_PERMUTE, RT_RECORD, RT_VERIFY
from repro.core.runtime import DcaRuntime
from repro.interp.codegen import CodegenExecutor
from repro.interp.interpreter import Interpreter
from repro.interp.values import MiniCRuntimeError

#: Cheap-but-representative PLDS subset (~0.7 s per full-suite pass).
SUBSET_NAMES = ("mcf", "twolf", "otter")

#: Overhead budget for disabled observability.
MAX_OVERHEAD = 0.02
REPS_PER_ROUND = 3
MAX_ROUNDS = 5


def _no_hook_handle_intrinsic(self, interp, name, args):
    """``DcaRuntime.handle_intrinsic`` without the obs tally guard."""
    label = args[0]
    if name == RT_GET:
        return self._get(label, args[1])
    if name == RT_NEXT:
        return self._next(label)
    if name == RT_RECORD:
        self._record(label, tuple(args[1:]))
        return None
    if name == RT_PERMUTE:
        self._permute(label)
        return None
    if name == RT_VERIFY:
        self._verify(interp, label, args[1:])
        return None
    raise MiniCRuntimeError(f"unknown DCA intrinsic {name!r}")


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
            entry=bench.entry,
            rtol=bench.rtol,
            liveout_policy=bench.liveout_policy,
        ).analyze()


def _min_of(n, fn):
    best = float("inf")
    for _ in range(n):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_obs_overhead(benchmark, capsys, monkeypatch):
    assert not obs.is_enabled(), "overhead run requires the disabled default"
    benches = _subset()
    modules = {b.name: b.compile(fresh=True) for b in benches}

    def measure_round():
        # Paired: baseline (hooks stripped) vs shipped executors,
        # interleaved so drift hits both sides alike.
        with monkeypatch.context() as patch:
            patch.setattr(
                DcaRuntime, "handle_intrinsic", _no_hook_handle_intrinsic
            )
            patch.setattr(Interpreter, "run", _no_hook_run)
            patch.setattr(CodegenExecutor, "run", _no_hook_codegen_run)
            baseline = _min_of(REPS_PER_ROUND, lambda: _analyze_all(benches, modules))
        disabled = _min_of(REPS_PER_ROUND, lambda: _analyze_all(benches, modules))
        return baseline, disabled

    # Warm-up pass (imports, caches, branch predictors).
    _analyze_all(benches, modules)

    rounds = []
    for _ in range(MAX_ROUNDS):
        baseline, disabled = benchmark.pedantic(
            measure_round, rounds=1, iterations=1
        ) if not rounds else measure_round()
        ratio = disabled / baseline
        rounds.append((baseline, disabled, ratio))
        if ratio < 1.0 + MAX_OVERHEAD:
            break

    table = format_table(
        ("Round", "Baseline(s)", "Disabled(s)", "Overhead"),
        [
            (i + 1, f"{b:.4f}", f"{d:.4f}", f"{(r - 1.0) * 100:+.2f}%")
            for i, (b, d, r) in enumerate(rounds)
        ],
    )
    with capsys.disabled():
        print("\n== Disabled-observability overhead "
              f"(PLDS subset: {', '.join(SUBSET_NAMES)}) ==")
        print(table)

    best = min(r for _, _, r in rounds)
    assert best < 1.0 + MAX_OVERHEAD, (
        f"disabled observability costs {(best - 1.0) * 100:.2f}% "
        f"(budget {MAX_OVERHEAD * 100:.0f}%) across {len(rounds)} rounds"
    )


def test_enabled_obs_cost_on_record(capsys):
    """Not an assertion on speed — documents what tracing costs."""
    bench = _subset()[1]  # twolf: mid-sized, exercises the dynamic stage
    module = bench.compile(fresh=True)
    start = time.perf_counter()
    with obs.enabled() as ctx:
        report = DcaAnalyzer(
            module,
            entry=bench.entry,
            rtol=bench.rtol,
            liveout_policy=bench.liveout_policy,
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
