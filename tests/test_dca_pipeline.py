"""The DCA stage pipeline: stage order, stage time booking, and
per-analysis state isolation.

``DcaAnalyzer.analyze`` runs a fixed list of named stages; the key order
of ``stage_times_ms`` is part of the serialized report bytes, and every
piece of analysis work must be booked to exactly one stage (the run
ledger's ``wall_ms`` is the sum of the stage times).
"""

import pytest

import repro.core.dca as dca
import repro.obs as obs
from repro.cache import AnalysisCache
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
        clock=_zero,
        static_filter=static_filter,
        tiering=tiering,
    )
    with obs.enabled() as ctx:
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
    report = DcaAnalyzer(
        compile_program(PROGRAM), clock=lambda: now[0], static_filter=False
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
        clock=_zero,
        static_filter=False,
        tiering=tiering,
        source_text=PROGRAM,
    )
    plain = analyzer.analyze().to_json()
    with AnalysisCache(str(tmp_path)) as cache:
        analyzer.cache = cache
        cold = analyzer.analyze()
        warm = analyzer.analyze()
    assert cold.cache.stores > 0 and warm.cache.hits > 0
    assert cold.to_json() == plain
    assert warm.to_json() == plain
