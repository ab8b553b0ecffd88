"""Shared, session-cached evaluation state for the benchmark harnesses.

Running DCA and the five detectors over the whole suite is the expensive
part; every table/figure harness consumes these cached results and only
its own aggregation runs under pytest-benchmark timing.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.baselines import (
    DependenceProfilingDetector,
    DiscoPopDetector,
    IccDetector,
    IdiomsDetector,
    PollyDetector,
    build_context,
)
from repro.benchsuite import ALL_BENCHMARKS, NPB_BENCHMARKS, PLDS_BENCHMARKS
from repro.api import AnalysisConfig
from repro.core import DcaAnalyzer


@pytest.fixture(scope="session")
def dca_reports() -> Dict[str, object]:
    """DCA reports for every benchmark in the suite.

    Specs are pinned off: the table/figure harnesses and their ground
    truth encode the paper's byte-exact verification contract.  The
    spec-relaxed verdicts are gated separately by test_spec_unlock.py.
    """
    reports = {}
    for bench in ALL_BENCHMARKS:
        module = bench.compile(fresh=True)
        analyzer = DcaAnalyzer(
            module,
            AnalysisConfig(
                rtol=bench.rtol,
                liveout_policy=bench.liveout_policy,
                specs=False,
            ),
        )
        reports[bench.name] = analyzer.analyze()
    return reports


@pytest.fixture(scope="session")
def detection_contexts() -> Dict[str, object]:
    """Baseline detection contexts (one profiled run per benchmark)."""
    return {
        bench.name: build_context(bench.compile(fresh=True))
        for bench in ALL_BENCHMARKS
    }


@pytest.fixture(scope="session")
def detectors():
    return {
        "dep-profiling": DependenceProfilingDetector(),
        "discopop": DiscoPopDetector(),
        "idioms": IdiomsDetector(),
        "polly": PollyDetector(),
        "icc": IccDetector(),
    }


def analyze_suite(cache=None, **config) -> Dict[str, object]:
    """DCA reports for every benchmark, from fresh module objects.

    Each benchmark runs under its own ``rtol`` and liveout policy unless
    ``config`` overrides them; every other keyword is an
    :class:`~repro.api.AnalysisConfig` field.
    """
    reports = {}
    for bench in ALL_BENCHMARKS:
        fields = {"rtol": bench.rtol, "liveout_policy": bench.liveout_policy}
        fields.update(config)
        analyzer = DcaAnalyzer(
            bench.compile(fresh=True), AnalysisConfig(**fields), cache=cache
        )
        reports[bench.name] = analyzer.analyze()
    return reports


def npb_names():
    return [b.name for b in NPB_BENCHMARKS]


def plds_names():
    return [b.name for b in PLDS_BENCHMARKS]


def format_table(headers, rows) -> str:
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    out = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths))]
    out.append("  ".join("-" * w for w in widths))
    for row in rows:
        out.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)
