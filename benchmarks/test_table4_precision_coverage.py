"""Table IV — DCA precision (false positives/negatives against expert
ground truth) and sequential coverage of the detected loops vs the
combined static baseline's.

Paper shape: zero false positives, zero false negatives among tested
loops; DCA's detected loops cover a substantially larger fraction of
execution time than the combined static tools' (DC, the I/O benchmark,
stays near zero for DCA since its hot loops are excluded).
"""

from conftest import format_table

from repro.baselines import combine_static
from repro.benchsuite import NPB_BENCHMARKS
from repro.core import EXCLUDED_IO, ITERATOR_ONLY, NOT_EXERCISED, UNTESTABLE
from repro.interp.interpreter import Interpreter
from repro.interp.profiler import Profiler
from repro.parallel import NestingObserver

_UNTESTED = (EXCLUDED_IO, ITERATOR_ONLY, NOT_EXERCISED, UNTESTABLE)


def _outermost_coverage(bench, labels):
    """Combined coverage of the outermost loops among ``labels``."""
    module = bench.compile(fresh=True)
    profiler = Profiler()
    nesting = NestingObserver()
    Interpreter(module, observers=[nesting, profiler]).run(bench.entry)
    chosen = []
    labelset = set(labels)
    for label in labels:
        if nesting.ancestors(label) & labelset:
            continue  # covered by an outer selected loop
        chosen.append(label)
    return profiler.coverage_of(chosen)


def _table(dca_reports, detection_contexts, detectors):
    rows = []
    for bench in NPB_BENCHMARKS:
        report = dca_reports[bench.name]
        ctx = detection_contexts[bench.name]
        commutative = set(report.commutative_labels())
        untested = {
            l for l, r in report.results.items() if r.verdict in _UNTESTED
        }
        gt_true = {l for l, v in bench.ground_truth.items() if v}
        gt_false = {l for l, v in bench.ground_truth.items() if not v}
        false_pos = sorted(commutative & gt_false)
        false_neg = sorted((gt_true - commutative) - untested)

        combined = combine_static(
            [detectors[name].detect(ctx) for name in ("idioms", "polly", "icc")]
        )
        static_found = [l for l, r in combined.items() if r.parallel]

        dca_cov = _outermost_coverage(bench, sorted(commutative))
        static_cov = _outermost_coverage(bench, sorted(static_found))
        rows.append(
            (
                bench.name,
                len(report.results),
                len(commutative),
                len(false_pos),
                len(false_neg),
                f"{dca_cov:.0%}",
                f"{static_cov:.0%}",
            )
        )
    return rows


def test_table4_precision_coverage(
    benchmark, dca_reports, detection_contexts, detectors, capsys
):
    rows = benchmark.pedantic(
        _table,
        args=(dca_reports, detection_contexts, detectors),
        rounds=1,
        iterations=1,
    )
    table = format_table(
        ("Bmk", "Loops", "Found", "FalsePos", "FalseNeg", "DCA cov", "Static cov"),
        rows,
    )
    with capsys.disabled():
        print("\n== Table IV: precision and coverage ==")
        print(table)

    for row in rows:
        assert row[3] == 0, f"{row[0]}: DCA produced a false positive"
        assert row[4] == 0, f"{row[0]}: DCA produced a false negative"
    # Coverage: DCA ≥ combined static for every benchmark.
    for row in rows:
        dca_cov = float(row[5].rstrip("%"))
        static_cov = float(row[6].rstrip("%"))
        assert dca_cov >= static_cov - 1e-9, f"{row[0]}: static coverage exceeds DCA"
