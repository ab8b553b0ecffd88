"""Schedule-engine parallelization gate over the PLDS + NPB suite.

Two properties of ``--backend process``:

* **Zero drift** — with timing injected to zero, the process backend's
  report is byte-for-byte identical to the serial one on every
  benchmark: same verdicts, same provenance, same counters, same JSON.
  This always runs.
* **Wall speedup** — at ``--jobs 4`` the dynamic stage must complete the
  whole suite at least 1.8x faster than serial.  This only makes sense
  with real parallel hardware, so it skips on machines with fewer than
  four CPUs.
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import analyze_suite, format_table

import repro.obs as obs


JOBS = 4
MIN_SPEEDUP = 1.8


def _zero():
    return 0.0


def test_process_backend_zero_drift(capsys):
    with obs.disabled(clock=_zero):
        serial = analyze_suite()
        process = analyze_suite(backend="process", jobs=JOBS)
    rows = []
    for name, report in serial.items():
        other = process[name]
        drift = "identical" if report.to_json() == other.to_json() else "DRIFT"
        rows.append((name, len(report.results), report.schedule_executions, drift))
    with capsys.disabled():
        print("\n== Schedule engine: serial vs process (jobs=%d) ==" % JOBS)
        print(format_table(("Benchmark", "loops", "executions", "report"), rows))
    drifted = [name for name, *_, drift in rows if drift != "identical"]
    assert not drifted, f"process backend drifted on: {drifted}"


@pytest.mark.skipif(
    (os.cpu_count() or 1) < JOBS,
    reason=f"wall-speedup gate needs >= {JOBS} CPUs",
)
def test_process_backend_wall_speedup(capsys):
    # Warm both paths (pool spawn, pyc) before timing.
    analyze_suite(backend="process", jobs=JOBS)

    start = time.perf_counter()
    analyze_suite()
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    analyze_suite(backend="process", jobs=JOBS)
    process_s = time.perf_counter() - start

    speedup = serial_s / process_s if process_s else float("inf")
    with capsys.disabled():
        print(
            "\n== Schedule engine wall speedup: serial %.2fs / process %.2fs "
            "= %.2fx (gate %.1fx, jobs=%d) ==" % (serial_s, process_s, speedup, MIN_SPEEDUP, JOBS)
        )
    assert speedup >= MIN_SPEEDUP, (
        f"--jobs {JOBS} delivered only {speedup:.2f}x over the suite "
        f"(serial {serial_s:.2f}s, process {process_s:.2f}s)"
    )
