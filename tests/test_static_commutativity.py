"""Static commutativity prover: unit cases, DCA integration, soundness.

The agreement test at the bottom checks the pass's contract on the real
benchmark suites: every ``PROVEN_*`` verdict must match what the dynamic
oracle (permutation testing with the pre-screen disabled) finds for that
loop.  To keep it fast, the oracle only tests the statically-proven
loops (``candidate_labels``); the full with/without cost comparison
lives in ``benchmarks/test_static_filter_savings.py``.
"""

import pytest

from repro import compile_program
from repro.analysis.commutativity import (
    PROVEN_COMMUTATIVE,
    PROVEN_NONCOMMUTATIVE,
    UNKNOWN,
    StaticCommutativityAnalysis,
)
from repro.analysis.diagnostics import DiagnosticEngine, diagnostic_from_static
from repro.benchsuite import ALL_BENCHMARKS
from repro.api import AnalysisConfig
from repro.core import DcaAnalyzer
from repro.core.report import (
    COMMUTATIVE,
    DECIDED_DYNAMIC,
    DECIDED_STATIC,
    NON_COMMUTATIVE,
    RUNTIME_FAULT,
    SPLIT_MISMATCH,
)


def verdicts_of(source):
    module = compile_program(source)
    return StaticCommutativityAnalysis(module).analyze()


def verdict_of(source, label="main.L0"):
    return verdicts_of(source)[label]


# -- proven commutative -------------------------------------------------------


def test_independent_array_writes_proven():
    v = verdict_of(
        """
        func void main() {
          int[] a = new int[32];
          for (int i = 0; i < 32; i = i + 1) { a[i] = i * 3 + 1; }
          print(a[7]);
        }
        """
    )
    assert v.verdict == PROVEN_COMMUTATIVE
    assert any(e.kind == "affine-independent" for e in v.evidence)


def test_strided_disjoint_writes_proven():
    v = verdict_of(
        """
        func void main() {
          int[] a = new int[32];
          for (int i = 0; i < 16; i = i + 1) { a[i * 2] = i; }
          print(a[4]);
        }
        """
    )
    assert v.verdict == PROVEN_COMMUTATIVE


def test_int_sum_reduction_proven():
    v = verdict_of(
        """
        func void main() {
          int s = 0;
          for (int i = 0; i < 10; i = i + 1) { s += i * i; }
          print(s);
        }
        """
    )
    assert v.verdict == PROVEN_COMMUTATIVE
    assert any("reduction-add" in e.kind for e in v.evidence)


def test_minmax_reduction_proven():
    v = verdicts_of(
        """
        func void main() {
          int[] a = new int[16];
          for (int i = 0; i < 16; i = i + 1) { a[i] = (i * 13) % 7; }
          int m = 0 - 1000;
          for (int i = 0; i < 16; i = i + 1) { m = max(m, a[i]); }
          print(m);
        }
        """
    )["main.L1"]
    assert v.verdict == PROVEN_COMMUTATIVE
    assert any("minmax" in e.kind for e in v.evidence)


def test_float_minmax_proven():
    # min/max is exact on floats too, unlike +/*.
    v = verdicts_of(
        """
        func void main() {
          float[] a = new float[8];
          for (int i = 0; i < 8; i = i + 1) { a[i] = to_float(i) * 0.5; }
          float m = 0.0;
          for (int i = 0; i < 8; i = i + 1) { m = max(m, a[i]); }
          print(m);
        }
        """
    )["main.L1"]
    assert v.verdict == PROVEN_COMMUTATIVE


def test_histogram_proven():
    v = verdicts_of(
        """
        func void main() {
          int[] h = new int[4];
          int[] a = new int[16];
          for (int i = 0; i < 16; i = i + 1) { a[i] = (i * 5) % 4; }
          for (int i = 0; i < 16; i = i + 1) { h[a[i]] += 1; }
          print(h[0]);
        }
        """
    )["main.L1"]
    assert v.verdict == PROVEN_COMMUTATIVE
    assert any(e.kind == "histogram" for e in v.evidence)


# -- proven non-commutative ---------------------------------------------------


def test_last_value_race_proven_noncommutative():
    v = verdict_of(
        """
        func void main() {
          int winner = 0;
          for (int i = 0; i < 10; i = i + 1) { winner = i * 3 + 1; }
          print(winner);
        }
        """
    )
    assert v.verdict == PROVEN_NONCOMMUTATIVE
    assert v.evidence[0].kind == "scalar-output-race"


def test_ordered_print_proven_noncommutative():
    v = verdict_of(
        """
        func void main() {
          for (int i = 0; i < 5; i = i + 1) { print(i); }
        }
        """
    )
    assert v.verdict == PROVEN_NONCOMMUTATIVE
    assert v.evidence[0].kind == "ordered-io"


def test_io_in_callee_proven_noncommutative():
    v = verdict_of(
        """
        func void shout(int x) { print(x); }
        func void main() {
          for (int i = 0; i < 5; i = i + 1) { shout(i); }
        }
        """
    )
    assert v.verdict == PROVEN_NONCOMMUTATIVE
    assert v.evidence[0].kind == "ordered-io"


# -- unknown (dynamic testing required) ---------------------------------------


def test_unresolved_aliasing_unknown():
    # Two parameter arrays may alias; writes through one, reads the other.
    v = verdicts_of(
        """
        func void scale(int[] dst, int[] src) {
          for (int i = 0; i < 8; i = i + 1) { dst[i] = src[i + 1] * 2; }
        }
        func void main() {
          int[] a = new int[16];
          scale(a, a);
          print(a[0]);
        }
        """
    )["scale.L0"]
    assert v.verdict == UNKNOWN
    assert any(e.kind == "may-alias" for e in v.evidence)


def test_loop_carried_array_dependence_unknown():
    v = verdict_of(
        """
        func void main() {
          int[] a = new int[16];
          for (int i = 1; i < 16; i = i + 1) { a[i] = a[i - 1] + i; }
          print(a[15]);
        }
        """
    )
    assert v.verdict == UNKNOWN
    assert any(e.kind == "loop-carried-access" for e in v.evidence)


def test_float_reduction_unknown():
    v = verdict_of(
        """
        func void main() {
          float s = 0.0;
          for (int i = 0; i < 8; i = i + 1) { s = s + to_float(i) * 0.1; }
          print(s);
        }
        """
    )
    assert v.verdict == UNKNOWN
    assert any(e.kind == "float-reduction" for e in v.evidence)


def test_payload_induction_leak_unknown():
    # `run`'s final value is order-invariant but its intermediate values
    # are read by the array write, baking execution order into `out`.
    v = verdict_of(
        """
        func void main() {
          int[] out = new int[8];
          int run = 0;
          for (int i = 0; i < 8; i = i + 1) {
            run = run + 1;
            out[i] = run * (i + 1);
          }
          print(out[3]);
        }
        """
    )
    assert v.verdict == UNKNOWN
    assert any(e.kind == "payload-induction" for e in v.evidence)


def test_pure_counter_still_proven():
    # The same induction with no outside readers is a pure counter.
    v = verdict_of(
        """
        func void main() {
          int run = 0;
          for (int i = 0; i < 8; i = i + 1) { run = run + 1; }
          print(run);
        }
        """
    )
    assert v.verdict == PROVEN_COMMUTATIVE


# -- diagnostics --------------------------------------------------------------


def test_diagnostics_rendering():
    verdicts = verdicts_of(
        """
        func void main() {
          int winner = 0;
          for (int i = 0; i < 6; i = i + 1) { winner = i * 2; }
          int s = 0;
          for (int i = 0; i < 6; i = i + 1) { s += i; }
          print(winner + s);
        }
        """
    )
    engine = DiagnosticEngine(program="race.mc")
    engine.ingest_static(verdicts.values())
    counts = engine.counts()
    assert counts["warning"] == 1 and counts["info"] == 1
    text = engine.render_text()
    assert "DCA-RACE" in text and "DCA-SAFE" in text
    assert "race.mc" in text
    # Warnings sort before infos.
    assert text.index("DCA-RACE") < text.index("DCA-SAFE")
    import json

    payload = json.loads(engine.render_json())
    assert payload["counts"]["warning"] == 1
    assert len(payload["diagnostics"]) == 2
    diag = diagnostic_from_static(next(iter(verdicts.values())))
    assert diag.severity in ("warning", "info", "note")


# -- DCA integration ----------------------------------------------------------


def test_static_filter_skips_dynamic_testing():
    module = compile_program(
        """
        func void main() {
          int[] a = new int[16];
          for (int i = 0; i < 16; i = i + 1) { a[i] = i; }
          print(a[3]);
        }
        """
    )
    report = DcaAnalyzer(module).analyze()
    result = report.loop("main.L0")
    assert result.verdict == COMMUTATIVE
    assert result.decided_by == DECIDED_STATIC
    assert result.static_verdict == PROVEN_COMMUTATIVE
    assert result.schedules_tested == []
    assert report.schedule_executions == 0
    assert report.static_hit_rate() == (1, 1)


def test_static_race_verdict_matches_dynamic():
    source = """
        func void main() {
          int winner = 0;
          for (int i = 0; i < 10; i = i + 1) { winner = i * 3 + 1; }
          print(winner);
        }
    """
    static = DcaAnalyzer(compile_program(source)).analyze().loop("main.L0")
    dynamic = (
        DcaAnalyzer(
            compile_program(source), AnalysisConfig(static_filter=False)
        )
        .analyze()
        .loop("main.L0")
    )
    assert static.decided_by == DECIDED_STATIC
    assert dynamic.decided_by == DECIDED_DYNAMIC
    assert static.verdict == dynamic.verdict == NON_COMMUTATIVE


def test_noncommutative_proof_not_applied_under_eventual_policy():
    # The race proof asserts a per-exit live-out difference; under the
    # eventual policy only the final program outcome counts, so the
    # pre-screen must defer to the dynamic stage.
    source = """
        func void main() {
          int winner = 0;
          for (int i = 0; i < 10; i = i + 1) { winner = i * 3 + 1; }
          print(winner);
        }
    """
    report = DcaAnalyzer(
        compile_program(source),
        AnalysisConfig(liveout_policy="eventual"),
    ).analyze()
    assert report.loop("main.L0").decided_by == DECIDED_DYNAMIC


def test_static_filter_defers_when_loop_never_iterates_twice():
    # A proven loop that never reaches 2 trips must keep the dynamic
    # stage's vacuous verdict, not be upgraded to a full proof.
    source = """
        func void main() {
          int[] a = new int[4];
          for (int i = 0; i < 1; i = i + 1) { a[i] = i; }
          print(a[0]);
        }
    """
    report = DcaAnalyzer(compile_program(source)).analyze()
    result = report.loop("main.L0")
    assert result.decided_by == DECIDED_DYNAMIC
    assert result.verdict == "commutative-vacuous"


def test_report_json_provenance():
    module = compile_program(
        """
        func void main() {
          int s = 0;
          for (int i = 0; i < 8; i = i + 1) { s += i; }
          print(s);
        }
        """
    )
    report = DcaAnalyzer(module).analyze()
    payload = report.to_dict()
    loop = payload["loops"]["main.L0"]
    # Schema 2 (under REPRO_TIERING) nests decided_by in the verdict.
    verdict = loop["verdict"]
    decided_by = (
        verdict["decided_by"] if isinstance(verdict, dict) else loop["decided_by"]
    )
    assert decided_by == DECIDED_STATIC
    assert loop["static_verdict"] == PROVEN_COMMUTATIVE
    assert loop["static_evidence"]
    assert payload["static_filter"] is True
    assert payload["decided_by"] == {DECIDED_STATIC: 1}


# -- soundness: static verdicts vs the dynamic oracle -------------------------

#: Dynamic verdicts that contradict a static commutativity proof.
_REFUTES_COMMUTATIVE = {NON_COMMUTATIVE, RUNTIME_FAULT, SPLIT_MISMATCH}


@pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
def test_static_verdicts_agree_with_dynamic_oracle(bench):
    # Both stages resolve specs identically (REPRO_SPECS), so the
    # agreement contract holds under either verification semantics.
    from repro.analysis.specs import default_registry
    from repro.settings import resolve

    specs = default_registry() if resolve("specs") else None
    module = compile_program(bench.source)
    static = StaticCommutativityAnalysis(module, specs=specs).analyze()
    proven = [label for label, v in static.items() if v.is_proven]
    if not proven:
        return
    oracle = DcaAnalyzer(
        compile_program(bench.source),
        AnalysisConfig(
            entry=bench.entry,
            rtol=bench.rtol,
            liveout_policy=bench.liveout_policy,
            candidate_labels=proven,
            static_filter=False,
            specs=specs is not None,
        ),
    ).analyze()
    for label in proven:
        if label not in oracle.results:
            continue
        dynamic = oracle.results[label].verdict
        sv = static[label].verdict
        if sv == PROVEN_COMMUTATIVE:
            assert dynamic not in _REFUTES_COMMUTATIVE, (
                f"{bench.name} {label}: static proof of commutativity "
                f"contradicted by dynamic verdict {dynamic}"
            )
        elif bench.liveout_policy == "strict":
            # The race proof only claims a difference for per-exit
            # comparison; under the eventual policy it may be masked.
            assert dynamic != COMMUTATIVE or (
                oracle.results[label].max_trip < 2
            ), (
                f"{bench.name} {label}: static race proof contradicted "
                f"by dynamic verdict {dynamic}"
            )
