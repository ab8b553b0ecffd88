"""Gate for the commutativity-spec registry's benchmark impact.

Two sides of the same contract:

* **Unlock** — with specs enabled, the order-insensitive-container
  benchmarks (``otter``, ``hash``) flip their chain-building loops from
  non-commutative to commutative, at least one of them decided purely
  statically (``static-specs`` provenance).
* **Zero drift** — on every other benchmark, the specs-on report is
  identical to the specs-off report (modulo wall-clock cost fields):
  declaring specs for containers a program does not use must change
  nothing.
"""

from __future__ import annotations

import pytest

from repro.benchsuite import ALL_BENCHMARKS, by_name
from repro.api import AnalysisConfig
from repro.core import DcaAnalyzer
from repro.core.report import DECIDED_STATIC_SPECS

SPEC_BENCHMARKS = ("otter", "hash")


def _specs_on_report(name):
    bench = by_name(name)
    module = bench.compile(fresh=True)
    return DcaAnalyzer(
        module,
        AnalysisConfig(
            rtol=bench.rtol, liveout_policy=bench.liveout_policy, specs=True,
        ),
    ).analyze()


@pytest.fixture(scope="module")
def specs_on_reports():
    return {b.name: _specs_on_report(b.name) for b in ALL_BENCHMARKS}


def _stable(report):
    """Report serialization with the wall-clock cost fields removed."""
    payload = report.to_dict()
    payload["metrics"].pop("stage_times_ms", None)
    for row in payload["loops"].values():
        del row["cost"]
    return payload


@pytest.mark.parametrize("name", SPEC_BENCHMARKS)
def test_specs_unlock_container_benchmark(name, dca_reports,
                                          specs_on_reports):
    off = dca_reports[name]
    on = specs_on_reports[name]
    assert set(on.results) == set(off.results)

    flipped = [
        label for label in off.results
        if not off.results[label].is_commutative
        and on.results[label].is_commutative
    ]
    regressed = [
        label for label in off.results
        if off.results[label].is_commutative
        and not on.results[label].is_commutative
    ]
    assert flipped, f"{name}: specs unlocked no loop"
    assert not regressed, f"{name}: specs regressed {regressed}"


def test_specs_static_provenance(specs_on_reports):
    """At least one unlocked loop is decided without any execution."""
    static_spec_loops = [
        (name, label)
        for name in SPEC_BENCHMARKS
        for label, result in specs_on_reports[name].results.items()
        if result.serialized_decided_by == DECIDED_STATIC_SPECS
    ]
    assert static_spec_loops


def test_specs_zero_drift_elsewhere(dca_reports, specs_on_reports):
    for bench in ALL_BENCHMARKS:
        if bench.name in SPEC_BENCHMARKS:
            continue
        assert _stable(specs_on_reports[bench.name]) == \
            _stable(dca_reports[bench.name]), \
            f"{bench.name}: specs-on report drifted"


def test_specs_off_never_uses_spec_provenance(dca_reports):
    for name, report in dca_reports.items():
        for label, result in report.results.items():
            assert result.serialized_decided_by != DECIDED_STATIC_SPECS, \
                f"{name}/{label}: spec provenance leaked into specs-off run"
