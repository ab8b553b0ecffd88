"""OpenMetrics / export-format tests for :mod:`repro.obs.export`.

The acceptance criterion is a round-trip: every instrument recorded
while a real program is analyzed under full observability must appear
in the ``openmetrics`` export, and the exposition must satisfy the
strict parser (HELP/TYPE lines, sample syntax, ``# EOF`` terminator).
"""

import json

import pytest

import repro.obs as obs
from repro.cli import main
from repro.obs.export import (
    EXPORT_FORMATS,
    LABEL_RULES,
    mangle_metric_name,
    parse_openmetrics,
    render_export,
    render_openmetrics,
)
from repro.obs.metrics import MetricsRegistry

PROGRAM = """
func void main() {
  int acc = 0;
  for (int i = 0; i < 8; i = i + 1) { acc += i; }
  print(acc);
}
"""


def expected_family(name: str) -> str:
    """Mirror the renderer's family resolution through the public table."""
    for prefix, _label in LABEL_RULES:
        if name.startswith(prefix) and len(name) > len(prefix):
            return mangle_metric_name(prefix.rstrip("."))
    return mangle_metric_name(name)


# -- name mangling and label rules --------------------------------------------


def test_mangle_replaces_invalid_chars_and_prefixes():
    assert mangle_metric_name("dca.schedule_executions") == (
        "repro_dca_schedule_executions"
    )
    assert mangle_metric_name("a-b c.d") == "repro_a_b_c_d"
    # Already-prefixed names are not double-prefixed.
    assert mangle_metric_name("repro_x") == "repro_x"


def test_label_rules_collapse_dimensional_families():
    registry = MetricsRegistry()
    registry.counter("exec.backend.codegen").inc(3)
    registry.counter("exec.backend.interp").inc(1)
    text = render_openmetrics(registry)
    families = parse_openmetrics(text)
    fam = families["repro_exec_backend"]
    assert fam["type"] == "counter"
    samples = {labels["backend"]: value for _n, labels, value in fam["samples"]}
    assert samples == {"codegen": 3.0, "interp": 1.0}


def test_label_values_escape_and_round_trip():
    registry = MetricsRegistry()
    tricky = 'weird\\name"with\nnewline'
    registry.counter("exec.backend." + tricky).inc()
    families = parse_openmetrics(render_openmetrics(registry))
    (_name, labels, value), = families["repro_exec_backend"]["samples"]
    assert labels == {"backend": tricky}
    assert value == 1.0


# -- renderer shape ------------------------------------------------------------


def test_render_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.counter("dca.loops").inc(4)
    registry.gauge("schedule.queue_depth").set(7)
    hist = registry.histogram("dca.snapshot_bytes")
    hist.observe(8)
    hist.observe(24)
    text = render_openmetrics(registry)
    families = parse_openmetrics(text)

    assert families["repro_dca_loops"]["type"] == "counter"
    assert families["repro_dca_loops"]["samples"] == [
        ("repro_dca_loops_total", {}, 4.0)
    ]
    assert families["repro_schedule_queue_depth"]["type"] == "gauge"
    summary = families["repro_dca_snapshot_bytes"]
    assert summary["type"] == "summary"
    samples = {name: value for name, _l, value in summary["samples"]}
    assert samples["repro_dca_snapshot_bytes_count"] == 2.0
    assert samples["repro_dca_snapshot_bytes_sum"] == 32.0
    # min/max ride along as companion gauges.
    assert families["repro_dca_snapshot_bytes_min"]["samples"][0][2] == 8.0
    assert families["repro_dca_snapshot_bytes_max"]["samples"][0][2] == 24.0


def test_render_ends_with_eof_and_has_help_type_per_family():
    registry = MetricsRegistry()
    registry.counter("dca.loops").inc()
    text = render_openmetrics(registry)
    assert text.endswith("# EOF\n")
    lines = text.splitlines()
    assert "# HELP repro_dca_loops" in lines[0]
    assert lines[1] == "# TYPE repro_dca_loops counter"


def test_render_is_deterministic():
    def build():
        registry = MetricsRegistry()
        registry.counter("b.two").inc(2)
        registry.counter("a.one").inc(1)
        registry.gauge("c.three").set(3)
        return render_openmetrics(registry)

    assert build() == build()


# -- strict parser -------------------------------------------------------------


def test_parser_rejects_missing_eof():
    with pytest.raises(ValueError, match="EOF"):
        parse_openmetrics("# TYPE x counter\nx_total 1\n")


def test_parser_rejects_content_after_eof():
    with pytest.raises(ValueError, match="after # EOF"):
        parse_openmetrics("# EOF\nx 1\n")


def test_parser_rejects_orphan_sample():
    with pytest.raises(ValueError, match="precedes"):
        parse_openmetrics("x_total 1\n# EOF\n")


def test_parser_rejects_malformed_value_and_labels():
    with pytest.raises(ValueError, match="malformed value"):
        parse_openmetrics("# TYPE x counter\nx_total abc\n# EOF\n")
    with pytest.raises(ValueError, match="malformed labels"):
        parse_openmetrics('# TYPE x counter\nx_total{oops} 1\n# EOF\n')


# -- acceptance: full-pipeline round trip --------------------------------------


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(PROGRAM)
    return str(path)


def test_every_profile_instrument_appears_in_openmetrics(program_file):
    from repro.api import AnalysisConfig, AnalysisSession

    with AnalysisSession(AnalysisConfig()) as session:
        _report, ctx = session.profile(
            open(program_file).read(), source_path=program_file
        )
    payload = ctx.metrics.to_dict()
    instruments = (
        list(payload["counters"])
        + list(payload["gauges"])
        + list(payload["histograms"])
    )
    assert instruments, "profile run must record instruments"

    families = parse_openmetrics(render_openmetrics(ctx.metrics))
    for name in instruments:
        fam = expected_family(name)
        assert fam in families, f"instrument {name!r} missing from export"
        assert families[fam]["samples"], f"family {fam!r} has no samples"


def test_profile_export_cli_emits_valid_exposition(program_file, capsys):
    rc = main(["profile", program_file, "--export", "openmetrics"])
    out = capsys.readouterr().out
    assert rc == 0
    families = parse_openmetrics(out)
    assert "repro_interp_instructions" in families
    # The human-readable report is suppressed when exporting to stdout.
    assert "pipeline profile" not in out


def test_profile_export_out_writes_file(program_file, tmp_path, capsys):
    out_path = tmp_path / "metrics.prom"
    rc = main([
        "profile", program_file,
        "--export", "openmetrics", "--export-out", str(out_path),
    ])
    assert rc == 0
    families = parse_openmetrics(out_path.read_text())
    assert families
    assert "export written" in capsys.readouterr().err


def test_export_formats_chrome_trace_and_jsonl(program_file, capsys):
    rc = main(["profile", program_file, "--export", "chrome-trace"])
    trace = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert trace["traceEvents"]

    rc = main(["profile", program_file, "--export", "jsonl"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    records = [json.loads(line) for line in lines]
    kinds = {record["type"] for record in records}
    assert "span" in kinds and "counter" in kinds


def test_render_export_rejects_unknown_format():
    ctx = obs.enable()
    try:
        with pytest.raises(ValueError, match="unknown export format"):
            render_export(ctx, "xml")
    finally:
        obs.disable()
    assert set(EXPORT_FORMATS) == {"openmetrics", "chrome-trace", "jsonl"}
