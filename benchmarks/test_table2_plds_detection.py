"""Table II — PLDS kernels detected as commutative by DCA while every
baseline technique fails to identify any of them.

Reports, per program: origin, kernel function, sequential coverage of the
kernel loop, DCA's verdict, the number of baseline detectors finding it,
and the literature's exploitation technique.
"""

from conftest import format_table

from repro.benchsuite import PLDS_BENCHMARKS
from repro.interp.interpreter import Interpreter
from repro.interp.profiler import Profiler


def _coverage(bench, label):
    module = bench.compile(fresh=True)
    profiler = Profiler()
    Interpreter(module, observers=[profiler]).run(bench.entry)
    return profiler.coverage(label)


def _table(dca_reports, detection_contexts, detectors):
    rows = []
    for bench in PLDS_BENCHMARKS:
        info = bench.table2
        label = info.kernel_label
        report = dca_reports[bench.name]
        verdict = report.loop(label)
        ctx = detection_contexts[bench.name]
        baseline_hits = sum(
            1
            for det in detectors.values()
            if det.detect(ctx).get(label) and det.detect(ctx)[label].parallel
        )
        cov = _coverage(bench, label)
        lit = (
            f"{info.lit_loop_speedup}x loop"
            if info.lit_loop_speedup
            else f"{info.lit_overall_speedup}x overall"
        )
        rows.append(
            (
                bench.name,
                info.origin,
                info.function,
                f"{cov:.0%}",
                "yes" if verdict.is_commutative else verdict.verdict,
                baseline_hits,
                lit,
                info.technique,
            )
        )
    return rows


def test_table2_plds_detection(
    benchmark, dca_reports, detection_contexts, detectors, capsys
):
    rows = benchmark.pedantic(
        _table,
        args=(dca_reports, detection_contexts, detectors),
        rounds=1,
        iterations=1,
    )
    table = format_table(
        (
            "Benchmark",
            "Origin",
            "Function",
            "Coverage",
            "DCA",
            "Baselines",
            "Lit.speedup",
            "Technique",
        ),
        rows,
    )
    with capsys.disabled():
        print("\n== Table II: PLDS kernels ==")
        print(table)

    # The paper's headline: DCA detects every kernel; no baseline detects any.
    for row in rows:
        assert row[4] == "yes", f"DCA missed PLDS kernel in {row[0]}"
        assert row[5] == 0, f"a baseline unexpectedly detected {row[0]}"
