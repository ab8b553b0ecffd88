"""CLI smoke tests."""

import json

import pytest

from repro.cli import main

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


def test_cli_run(program_file, capsys):
    assert main(["run", program_file]) == 0
    assert "15" in capsys.readouterr().out


def test_cli_ir(program_file, capsys):
    assert main(["ir", program_file]) == 0
    out = capsys.readouterr().out
    assert "func main" in out
    assert "; loop main.L0" in out


def test_cli_analyze(program_file, capsys):
    assert main(["analyze", program_file]) == 0
    out = capsys.readouterr().out
    assert "main.L0: commutative" in out
    assert "1/1 loops commutative" in out


def test_cli_analyze_with_cores(program_file, capsys):
    assert main(["analyze", program_file, "--cores", "4"]) == 0
    assert "Simulated on 4 cores" in capsys.readouterr().out


def test_cli_analyze_reports_hit_rate(program_file, capsys):
    assert main(["analyze", program_file]) == 0
    assert "static pre-screen: decided 1/1" in capsys.readouterr().out


def test_cli_analyze_no_static_filter(program_file, capsys):
    assert main(["analyze", program_file, "--no-static-filter"]) == 0
    out = capsys.readouterr().out
    assert "main.L0: commutative" in out
    assert "static pre-screen: disabled" in out


def test_cli_analyze_json(program_file, capsys):
    assert main(["analyze", program_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    loop = payload["loops"]["main.L0"]
    # Schema 1 serializes the verdict as a flat string; schema 2 (when
    # REPRO_TIERING is set in the environment) nests it in an object.
    verdict = loop["verdict"]
    if isinstance(verdict, dict):
        loop = verdict
        verdict = verdict["value"]
    assert verdict == "commutative"
    assert loop["decided_by"] == "static"
    assert payload["static_filter"] is True


def test_cli_analyze_json_metrics_section(program_file, capsys):
    assert main(["analyze", program_file, "--json"]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    assert metrics["schedule_executions"] == 0  # statically decided
    assert metrics["interp_instructions"] > 0
    assert metrics["snapshot_bytes"] >= 0
    assert set(metrics["stage_times_ms"]) >= {"selection", "static", "golden"}
    assert metrics["schedule_executions_saved_static"] > 0


def test_cli_analyze_json_metrics_unfiltered(program_file, capsys):
    assert main(["analyze", program_file, "--json", "--no-static-filter"]) == 0
    payload = json.loads(capsys.readouterr().out)
    metrics = payload["metrics"]
    assert metrics["schedule_executions"] > 0
    assert metrics["snapshot_bytes"] > 0
    assert metrics["verify_comparisons"] > 0
    loop = payload["loops"]["main.L0"]
    assert loop["cost"]["schedule_executions"] == metrics["schedule_executions"]
    assert loop["cost"]["interp_instructions"] > 0
    assert loop["cost"]["schedule_times_ms"]


def test_cli_analyze_text_shows_pipeline_cost(program_file, capsys):
    assert main(["analyze", program_file]) == 0
    out = capsys.readouterr().out
    assert "pipeline cost:" in out
    assert "interpreted instructions" in out
    assert "stages:" in out


def test_cli_analyze_tiering_flag(program_file, capsys):
    assert main(["analyze", program_file, "--tiering"]) == 0
    out = capsys.readouterr().out
    assert "tiers:" in out
    assert "DOALL" in out or "REDUCTION" in out


def test_cli_analyze_tiering_env(program_file, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_TIERING", "1")
    assert main(["analyze", program_file]) == 0
    assert "tiers:" in capsys.readouterr().out


def test_cli_no_tiering_flag_beats_env(program_file, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_TIERING", "1")
    assert main(["analyze", program_file, "--no-tiering"]) == 0
    assert "tiers:" not in capsys.readouterr().out


def test_cli_tiering_off_by_default(program_file, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_TIERING", raising=False)
    assert main(["analyze", program_file]) == 0
    assert "tiers:" not in capsys.readouterr().out


def test_cli_analyze_json_tiered_schema(program_file, capsys):
    assert main(["analyze", program_file, "--tiering", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report_schema_version"] == 2
    loop = payload["loops"]["main.L0"]
    assert loop["verdict"]["value"] == "commutative"
    assert loop["verdict"]["tier"] in ("DOALL", "REDUCTION")


def test_cli_detect(program_file, capsys):
    assert main(["detect", program_file]) == 0
    out = capsys.readouterr().out
    assert "dep-prof" in out
    assert "commutative" in out


def test_cli_detect_json(program_file, capsys):
    assert main(["detect", program_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    verdict = payload["dca"]["loops"]["main.L0"]["verdict"]
    if isinstance(verdict, dict):  # schema 2 under REPRO_TIERING
        verdict = verdict["value"]
    assert verdict == "commutative"
    assert "dep-profiling" in payload["baselines"]


def test_cli_detect_json_has_metrics_and_costs(program_file, capsys):
    assert main(["detect", program_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    metrics = payload["dca"]["metrics"]
    assert metrics["interp_instructions"] > 0
    assert "stage_times_ms" in metrics
    costs = payload["costs"]
    assert costs["profile"]["executions"] == 1
    assert costs["profile"]["instructions"] > 0
    assert "dep-profiling" in costs


def test_cli_lint(program_file, capsys):
    assert main(["lint", program_file]) == 0
    out = capsys.readouterr().out
    assert "DCA-SAFE" in out
    assert "1 loops" in out


def test_cli_lint_json(program_file, capsys):
    assert main(["lint", program_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["info"] == 1


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
