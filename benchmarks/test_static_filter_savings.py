"""Static pre-screen savings — dynamic schedule executions avoided.

The static commutativity prover resolves provable loops before the
dynamic stage runs, so every statically decided loop saves its full
permutation-testing budget (identity + perturbing schedules).  This
harness runs DCA over the PLDS + NPB suites twice — with and without
the pre-screen — and reports, per benchmark:

* candidate loops that reached the testing stage,
* loops the static pass decided,
* dynamic schedule executions in each mode.

Assertions encode the PR's acceptance criteria: on the PLDS suite the
filtered run performs strictly fewer schedule executions, at least 25%
of candidate loops across PLDS + NPB skip permutation testing, the two
modes agree on every verdict, and no static proof ever contradicts the
dynamic oracle.
"""

from conftest import format_table

from repro.benchsuite import NPB_BENCHMARKS, PLDS_BENCHMARKS
from repro.api import AnalysisConfig
from repro.core import (
    COMMUTATIVE,
    DECIDED_STATIC,
    NON_COMMUTATIVE,
    RUNTIME_FAULT,
    SPLIT_MISMATCH,
    DcaAnalyzer,
)

_REFUTES_COMMUTATIVE = {NON_COMMUTATIVE, RUNTIME_FAULT, SPLIT_MISMATCH}


def _run(bench, static_filter):
    analyzer = DcaAnalyzer(
        bench.compile(fresh=True),
        AnalysisConfig(
            entry=bench.entry,
            rtol=bench.rtol,
            liveout_policy=bench.liveout_policy,
            static_filter=static_filter,
        ),
    )
    return analyzer.analyze()


def _measure():
    rows = []
    for bench in PLDS_BENCHMARKS + NPB_BENCHMARKS:
        filtered = _run(bench, static_filter=True)
        unfiltered = _run(bench, static_filter=False)
        hits, tested = filtered.static_hit_rate()
        # Consume the counts through the report's machine-readable
        # "metrics" section — the same surface `analyze --json` exposes.
        filtered_metrics = filtered.to_dict()["metrics"]
        unfiltered_metrics = unfiltered.to_dict()["metrics"]
        rows.append(
            {
                "suite": bench.suite,
                "name": bench.name,
                "tested": tested,
                "static": hits,
                "sched_with": filtered_metrics["schedule_executions"],
                "sched_without": unfiltered_metrics["schedule_executions"],
                "saved_bound": filtered_metrics[
                    "schedule_executions_saved_static"
                ],
                "filtered": filtered,
                "unfiltered": unfiltered,
            }
        )
    return rows


def test_static_filter_savings(benchmark, capsys):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)

    table = format_table(
        ("Suite", "Benchmark", "Tested", "Static", "Sched(filter)",
         "Sched(full)", "Saved"),
        [
            (
                r["suite"],
                r["name"],
                r["tested"],
                r["static"],
                r["sched_with"],
                r["sched_without"],
                r["sched_without"] - r["sched_with"],
            )
            for r in rows
        ],
    )
    hits = sum(r["static"] for r in rows)
    tested = sum(r["tested"] for r in rows)
    saved = sum(r["sched_without"] - r["sched_with"] for r in rows)
    with capsys.disabled():
        print("\n== Static pre-screen: dynamic-testing savings ==")
        print(table)
        print(
            f"\n{hits}/{tested} tested loops decided statically "
            f"({hits / tested:.0%}); {saved} schedule executions saved"
        )

    # Strict reduction on the PLDS suite.
    plds = [r for r in rows if r["suite"] == "plds"]
    assert sum(r["sched_with"] for r in plds) < sum(
        r["sched_without"] for r in plds
    ), "pre-screen saved no schedule executions on PLDS"
    # At least 25% of candidate loops skip permutation testing overall.
    assert hits / tested >= 0.25, f"hit rate {hits}/{tested} below 25%"
    # The reports' own savings estimate bounds the measured savings:
    # statically decided loops account for the full testing budget, but a
    # non-commutative loop may short-circuit mid-way in the full run.
    assert saved > 0
    for r in rows:
        actual_saved = r["sched_without"] - r["sched_with"]
        if r["static"]:
            assert 0 < actual_saved <= r["saved_bound"], (
                f"{r['name']}: saved {actual_saved} outside "
                f"(0, {r['saved_bound']}]"
            )
        else:
            assert actual_saved == 0 and r["saved_bound"] == 0

    for r in rows:
        filtered, unfiltered = r["filtered"], r["unfiltered"]
        for label, result in filtered.results.items():
            oracle = unfiltered.results[label]
            # Both modes reach the same verdict for every loop.
            assert result.verdict == oracle.verdict, (
                f"{r['name']} {label}: filtered={result.verdict} "
                f"unfiltered={oracle.verdict}"
            )
            # Soundness: a static decision never contradicts the oracle.
            if result.decided_by == DECIDED_STATIC:
                if result.verdict == COMMUTATIVE:
                    assert oracle.verdict not in _REFUTES_COMMUTATIVE
                else:
                    assert oracle.verdict != COMMUTATIVE
