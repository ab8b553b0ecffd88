"""Persistent-cache gate over the PLDS + NPB suite.

Two properties of ``--cache DIR``:

* **Zero drift** — with timing injected to zero, a cold run populating
  a fresh cache and a warm run served from it both produce reports
  byte-for-byte identical to an uncached run, on every benchmark; and
  the warm pass must avoid at least 90% of the schedule executions the
  cold pass performed.  This always runs.
* **Wall speedup** — with the static pre-screen off (so the dynamic
  stage dominates, the workload the cache exists for), a warm pass over
  the whole suite must complete at least 1.3x faster than its cold
  pass.
"""

from __future__ import annotations

import time

from conftest import analyze_suite, format_table

import repro.obs as obs
from repro.cache import AnalysisCache

MIN_SKIP_FRACTION = 0.90
MIN_SPEEDUP = 1.3


def _zero():
    return 0.0


def test_cache_zero_drift(tmp_path, capsys):
    with obs.disabled(clock=_zero), AnalysisCache(str(tmp_path)) as cache:
        uncached = analyze_suite()
        cold = analyze_suite(cache=cache)
        warm = analyze_suite(cache=cache)

    rows = []
    drifted = []
    executed = avoided = 0
    for name, baseline in uncached.items():
        cold_ok = cold[name].to_json() == baseline.to_json()
        warm_ok = warm[name].to_json() == baseline.to_json()
        if not (cold_ok and warm_ok):
            drifted.append(name)
        executed += cold[name].schedule_executions
        avoided += warm[name].cache.schedule_executions_avoided
        rows.append(
            (
                name,
                cold[name].schedule_executions,
                warm[name].cache.hits,
                warm[name].cache.misses,
                "identical" if cold_ok and warm_ok else "DRIFT",
            )
        )
    with capsys.disabled():
        print("\n== Persistent cache: uncached vs cold vs warm ==")
        print(
            format_table(
                ("Benchmark", "executions", "hits", "misses", "report"), rows
            )
        )
        print(
            "suite: %d schedule executions cold, %d avoided warm (%.0f%%)"
            % (executed, avoided, 100.0 * avoided / executed if executed else 0)
        )
    assert not drifted, f"cache drifted on: {drifted}"
    assert executed > 0, "suite performed no schedule executions"
    fraction = avoided / executed
    assert fraction >= MIN_SKIP_FRACTION, (
        f"warm pass avoided only {fraction:.0%} of {executed} schedule "
        f"executions (gate {MIN_SKIP_FRACTION:.0%})"
    )


def test_cache_warm_wall_speedup(tmp_path, capsys):
    with AnalysisCache(str(tmp_path)) as cache:
        start = time.perf_counter()
        analyze_suite(cache=cache, static_filter=False)
        cold_s = time.perf_counter() - start

        start = time.perf_counter()
        analyze_suite(cache=cache, static_filter=False)
        warm_s = time.perf_counter() - start

    speedup = cold_s / warm_s if warm_s else float("inf")
    with capsys.disabled():
        print(
            "\n== Cache wall speedup: cold %.2fs / warm %.2fs = %.2fx "
            "(gate %.1fx) ==" % (cold_s, warm_s, speedup, MIN_SPEEDUP)
        )
    assert speedup >= MIN_SPEEDUP, (
        f"warm pass delivered only {speedup:.2f}x over the suite "
        f"(cold {cold_s:.2f}s, warm {warm_s:.2f}s)"
    )
