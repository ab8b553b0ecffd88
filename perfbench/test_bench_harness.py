"""Checks of the benchmark harness itself.

Not part of the tier-1 suite (``testpaths`` is ``tests/``).  Run from
the repository root::

    python3 -m pytest perfbench/test_bench_harness.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import bench

ROOT = bench.ROOT
BENCH = os.path.join(bench.PERFBENCH, "bench.py")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable] + args, cwd=cwd, capture_output=True, text=True,
        timeout=timeout,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    """2 programs, 1 pass each, 10 serve requests: every metric named in
    BENCHMARK.json is printed with its unit, and no verdict is wrong."""
    result = _result(_run([
        BENCH, "--workload", workload, "--smoke", "--trace", trace,
        "--seed", "7", "--out", str(tmp_path),
    ]))
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_every_layer_metric_names_what_it_should_move():
    """layer_moves.json gives each per-layer metric of BENCHMARK.json the
    end-to-end metrics it should move and the workloads it should move
    them on (``mostly``) or leave alone (``flat``)."""
    spec = _spec()
    with open(os.path.join(bench.PERFBENCH, "layer_moves.json")) as fh:
        groups = json.load(fh)
    named = [metric for group in groups for metric in group["metrics"]]
    assert sorted(named) == sorted(m["name"] for m in spec["per_layer"])
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for group in groups:
        assert set(group["moves"]) <= end_to_end, group
        assert group["mostly"] and set(group["mostly"]) <= set(bench.WORKLOADS), group
        assert set(group["flat"]) <= set(bench.WORKLOADS) - set(group["mostly"]), group


def test_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        bench.PERFBENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(
        ["perfbench/bench.py", "--workload", "suite-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


#: Runs bench.main with StaticCommutativityAnalysis.analyze slowed by
#: 20% of its own duration.  The delay spins rather than sleeps: a sleep
#: hands the core away and slows whatever runs next.
_PLANTED = """
import sys, time
sys.path.insert(0, {perfbench!r})
import bench
bench._bootstrap()
from repro.analysis.commutativity import StaticCommutativityAnalysis

original = StaticCommutativityAnalysis.analyze

def analyze(self):
    start = time.perf_counter()
    result = original(self)
    deadline = time.perf_counter() + 0.2 * (time.perf_counter() - start)
    while time.perf_counter() < deadline:
        pass
    return result

StaticCommutativityAnalysis.analyze = analyze
raise SystemExit(bench.main(sys.argv[1:]))
"""


def test_planted_static_slowdown_is_flagged_on_static_only(tmp_path):
    common = ["--workload", "suite-warm", "--trace", "1", "--seed", "3"]
    baselines = []
    for i in range(3):
        out = tmp_path / f"base{i}"
        _result(_run([BENCH] + common + ["--out", str(out)]))
        baselines.append(str(out / "layers-suite-warm.json"))
        summary = json.load(open(baselines[-1]))["workloads"]["suite-warm"]
        assert set(summary["stage_check"]) >= {
            "selection", "profile", "static", "golden", "dynamic", "tiering"
        }
    planted = tmp_path / "planted.py"
    planted.write_text(_PLANTED.format(perfbench=bench.PERFBENCH))
    proc = _run(
        [str(planted)] + common + ["--out", str(tmp_path / "slow"),
                                   "--compare"] + baselines
    )
    assert proc.returncode == 1, proc.stderr[-3000:]
    flagged = [
        line.split("regression ", 1)[1].split(":")[0]
        for line in proc.stderr.splitlines()
        if "regression " in line
    ]
    assert flagged == ["static.self_ms"], proc.stderr[-3000:]
