"""Pipeline (DSWP) tiering gate over the full benchmark suite.

Two contracts, one per direction of the tiering switch:

* **Tiering on** — loops the DOALL-only analysis leaves on the floor
  (non-commutative PLDS/NPB loops) must be recovered: at least two tier
  as ``PIPELINE`` with a stage plan whose simulated DSWP execution
  beats sequential (>1.0x local speedup) on the default machine model.
* **Tiering off** — zero drift: every benchmark's report bytes, config
  fingerprint, and workload digest must match the pre-tiering goldens
  in ``goldens/pre_tiering_digests.json`` exactly.  Turning the feature
  off must be indistinguishable from the feature never having existed,
  down to the cache key.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Tuple

import pytest

import repro.obs as obs
from repro.benchsuite import ALL_BENCHMARKS
from repro.api import AnalysisConfig
from repro.core import DcaAnalyzer
from repro.parallel import ParallelSimulator

GOLDENS = os.path.join(
    os.path.dirname(__file__), "goldens", "pre_tiering_digests.json"
)


def _zero() -> float:
    return 0.0


@pytest.fixture(scope="module")
def tiered_reports() -> Dict[str, object]:
    """Tiered DCA reports for every benchmark (specs pinned off, same
    contract as the conftest ``dca_reports`` fixture)."""
    reports = {}
    for bench in ALL_BENCHMARKS:
        analyzer = DcaAnalyzer(
            bench.compile(fresh=True),
            AnalysisConfig(
                rtol=bench.rtol,
                liveout_policy=bench.liveout_policy,
                specs=False,
                tiering=True,
            ),
        )
        reports[bench.name] = analyzer.analyze()
    return reports


def test_tiering_recovers_pipeline_loops(tiered_reports, capsys):
    """>=2 non-commutative suite loops must pipeline profitably."""
    rows = []
    profitable = 0
    for bench in ALL_BENCHMARKS:
        report = tiered_reports[bench.name]
        plans = {
            label: result.pipeline_plan
            for label, result in report.results.items()
            if result.tier == "PIPELINE" and result.pipeline_plan
        }
        if not plans:
            continue
        sim = ParallelSimulator(bench.compile(fresh=True))
        speedup = sim.simulate(
            sorted(plans),
            min_coverage=0.0,
            drop_unprofitable=False,
            pipeline_plans=plans,
        )
        for label in sorted(plans):
            detail = speedup.loops.get(label)
            if detail is None:
                continue
            assert detail.mode == "pipeline"
            stages = len(plans[label]["stages"])
            rows.append(
                (bench.name, label, stages, detail.local_speedup)
            )
            if detail.local_speedup > 1.0:
                profitable += 1

    with capsys.disabled():
        print("\n== Pipeline tiering: simulated DSWP local speedups ==")
        for name, label, stages, local in rows:
            print(f"  {name:10s} {label:14s} stages={stages} "
                  f"local={local:.2f}x")

    assert len(rows) >= 2, "suite produced fewer than 2 PIPELINE loops"
    assert profitable >= 2, (
        f"only {profitable} PIPELINE loops beat sequential: {rows}"
    )


def test_tier_counts_cover_every_loop(tiered_reports):
    for bench in ALL_BENCHMARKS:
        report = tiered_reports[bench.name]
        counts = report.tier_counts()
        assert sum(counts.values()) == len(report.results), bench.name
        data = report.to_dict()
        assert data["report_schema_version"] == 2, bench.name
        assert data["tier_counts"] == counts, bench.name


def test_tiering_off_is_zero_drift(monkeypatch):
    """Tiering off: all 24 reports and cache keys byte-match pre-PR."""
    monkeypatch.delenv("REPRO_TIERING", raising=False)
    with open(GOLDENS) as handle:
        goldens: Dict[str, Dict[str, str]] = json.load(handle)
    assert sorted(goldens) == sorted(b.name for b in ALL_BENCHMARKS)

    drifted = []
    for bench in ALL_BENCHMARKS:
        analyzer = DcaAnalyzer(
            bench.compile(fresh=True),
            AnalysisConfig(
                rtol=bench.rtol,
                liveout_policy=bench.liveout_policy,
                specs=False,
            ),
        )
        with obs.disabled(clock=_zero):
            report = analyzer.analyze()
        got = {
            "report_sha256": hashlib.sha256(
                report.to_json().encode()
            ).hexdigest(),
            "config_fingerprint": analyzer.config.fingerprint(),
            "workload_digest": analyzer.workload_digest(),
        }
        want = goldens[bench.name]
        for key in want:
            if got[key] != want[key]:
                drifted.append(f"{bench.name}.{key}: "
                               f"{want[key][:12]} -> {got[key][:12]}")
    assert not drifted, "tiering-off drift vs pre-PR goldens:\n" + "\n".join(
        drifted
    )
