"""End-to-end tests for ``repro profile`` and the observability flags.

Validates the acceptance criteria structurally: the Chrome trace file a
profile run emits has real trace events (``ph``/``ts``/``dur``/``name``)
with properly nested spans, the metrics JSON carries the pipeline
counters, and the event log is valid JSONL.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.obs as obs
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
HISTOGRAM = str(REPO_ROOT / "examples" / "histogram.mc")

PROGRAM = """
func void main() {
  int s = 0;
  for (int i = 0; i < 6; i = i + 1) { s += i; }
  print(s);
}
"""


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(PROGRAM)
    return str(path)


def _load_trace(path):
    with open(path) as handle:
        trace = json.load(handle)
    assert "traceEvents" in trace
    return trace["traceEvents"]


def _assert_valid_chrome_events(events):
    assert events, "trace must contain at least one span"
    for event in events:
        assert event["ph"] == "X"
        assert event["name"]
        assert isinstance(event["ts"], (int, float))
        assert isinstance(event["dur"], (int, float))
        assert event["dur"] >= 0


def _assert_nesting(events, child_name, parent_name):
    """Every ``child_name`` event is time-contained in a ``parent_name``."""
    parents = [e for e in events if e["name"] == parent_name]
    children = [e for e in events if e["name"] == child_name]
    assert parents and children
    for child in children:
        assert any(
            parent["ts"] <= child["ts"]
            and child["ts"] + child["dur"] <= parent["ts"] + parent["dur"]
            for parent in parents
        ), f"{child_name} span not nested inside {parent_name}"


def test_profile_histogram_emits_valid_chrome_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert main(["profile", HISTOGRAM, "--trace", str(trace_path)]) == 0
    events = _load_trace(trace_path)
    _assert_valid_chrome_events(events)
    names = {e["name"] for e in events}
    # All pipeline stages show up as spans...
    assert {"repro.compile", "dca.analyze", "dca.static", "dca.golden"} <= names
    # ...and stage spans nest inside the analyze umbrella span.
    _assert_nesting(events, "dca.static", "dca.analyze")
    _assert_nesting(events, "dca.golden", "dca.analyze")
    out = capsys.readouterr().out
    assert "pipeline profile" in out
    assert "flame" in out


def test_profile_text_output_has_cost_breakdown(capsys):
    assert main(["profile", HISTOGRAM]) == 0
    out = capsys.readouterr().out
    assert "pipeline cost:" in out
    assert "interpreted instructions" in out
    assert "stages:" in out
    # Per-loop cost table includes every histogram loop.
    for label in ("main.L0", "main.L1", "main.L2"):
        assert label in out


def test_profile_no_static_filter_traces_schedule_spans(program_file, tmp_path):
    if os.environ.get("REPRO_SCHEDULE_BACKEND") == "process":
        # Worker schedule spans land on their own trace lanes rather than
        # nested inside the coordinator's dca.loop span.
        pytest.skip("span nesting asserts serial-backend layout")
    trace_path = tmp_path / "trace.json"
    assert main(
        ["profile", program_file, "--no-static-filter", "--trace", str(trace_path)]
    ) == 0
    events = _load_trace(trace_path)
    _assert_valid_chrome_events(events)
    names = {e["name"] for e in events}
    assert {"dca.loop", "dca.schedule"} <= names
    _assert_nesting(events, "dca.schedule", "dca.loop")
    _assert_nesting(events, "dca.loop", "dca.dynamic")
    # Schedule spans carry identifying args.
    schedules = [e for e in events if e["name"] == "dca.schedule"]
    assert all(e["args"].get("loop") == "main.L0" for e in schedules)
    assert {e["args"].get("schedule") for e in schedules} >= {"identity"}


def test_profile_metrics_file(program_file, tmp_path):
    metrics_path = tmp_path / "metrics.json"
    assert main(
        ["profile", program_file, "--no-static-filter",
         "--metrics", str(metrics_path)]
    ) == 0
    with open(metrics_path) as handle:
        payload = json.load(handle)
    assert payload["program"] == program_file
    counters = payload["registry"]["counters"]
    assert counters["dca.schedule_executions"] > 0
    assert counters["dca.snapshots"] > 0
    assert counters["interp.instructions"] > 0
    hists = payload["registry"]["histograms"]
    assert hists["dca.snapshot.bytes"]["count"] == counters["dca.snapshots"]
    report_metrics = payload["report"]
    assert report_metrics["schedule_executions"] == counters[
        "dca.schedule_executions"
    ]
    assert set(report_metrics["stage_times_ms"]) >= {"golden", "dynamic"}


def test_profile_events_file_is_valid_jsonl(program_file, tmp_path):
    events_path = tmp_path / "events.jsonl"
    assert main(["profile", program_file, "--events", str(events_path)]) == 0
    lines = events_path.read_text().splitlines()
    assert lines
    records = [json.loads(line) for line in lines]
    verdicts = [r for r in records if r["kind"] == "verdict"]
    assert verdicts
    assert all(r["severity"] in obs.SEVERITIES for r in records)
    assert any(r.get("provenance") == "static" for r in verdicts)


def test_profile_restores_disabled_context(program_file, tmp_path):
    assert main(["profile", program_file]) == 0
    assert not obs.is_enabled()


def test_analyze_trace_flag_writes_trace(program_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert main(["analyze", program_file, "--trace", str(trace_path)]) == 0
    _assert_valid_chrome_events(_load_trace(trace_path))
    assert "trace written to" in capsys.readouterr().err
    assert not obs.is_enabled()


def test_analyze_profile_flag_prints_cost_table(program_file, capsys):
    assert main(["analyze", program_file, "--profile"]) == 0
    out = capsys.readouterr().out
    assert "pipeline cost:" in out
    assert "loop" in out and "instrs" in out  # table header
    assert "main.L0" in out


def test_detect_trace_and_profile_flags(program_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert main(
        ["detect", program_file, "--profile", "--trace", str(trace_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "cost: DCA" in out
    events = _load_trace(trace_path)
    names = {e["name"] for e in events}
    # The baselines share DCA's profile stage instead of running their own.
    assert "dca.profile" in names
    assert "baseline.profile" not in names
    assert "baseline.detect" in names


def test_obs_stdlib_guard_passes():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_obs_stdlib.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "stdlib-only" in result.stdout
