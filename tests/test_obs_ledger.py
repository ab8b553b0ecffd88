"""Run-ledger tests: recording, trends, regression checks, `repro stats`.

The CI-facing acceptance criterion lives here: after injecting a
synthetic regression into a ledger, ``repro stats`` must exit nonzero
and name the regressed series.
"""

import json

import pytest

from repro.cli import main
from repro.obs.ledger import RunLedger
from repro.settings import SETTINGS, resolve

LEDGER_DIR_ENV = SETTINGS["ledger_dir"].env

PROGRAM = """
func void main() {
  int s = 0;
  for (int i = 0; i < 5; i = i + 1) { s += i; }
  print(s);
}
"""


class FakeClock:
    def __init__(self):
        self.now = 1_000.0

    def __call__(self):
        self.now += 1.0
        return self.now


def make_ledger(tmp_path):
    return RunLedger(str(tmp_path / "ledger"), clock=FakeClock())


def record_run(ledger, wall_ms=10.0, saved=20, **kw):
    defaults = dict(
        kind="analyze", program="prog.mc", fingerprint="fp0",
        schedule_executions=5, cache_hits=3, cache_misses=1,
        verdicts={"commutative": 2}, stage_times={"static": 4.0},
    )
    defaults.update(kw)
    return ledger.record(wall_ms=wall_ms, executions_saved=saved, **defaults)


# -- recording and reading -----------------------------------------------------


def test_record_and_read_round_trip(tmp_path):
    with make_ledger(tmp_path) as ledger:
        run_id = record_run(ledger, extra={"note": "first"})
        (row,) = ledger.runs()
    assert row["run_id"] == run_id
    assert row["kind"] == "analyze"
    assert row["verdicts"] == {"commutative": 2}
    assert row["stage_times"] == {"static": 4.0}
    assert row["extra"] == {"note": "first"}
    assert row["cache_hit_rate"] == pytest.approx(0.75)


def test_rows_append_only_and_filterable(tmp_path):
    with make_ledger(tmp_path) as ledger:
        record_run(ledger, kind="analyze")
        record_run(ledger, kind="detect")
        record_run(ledger, kind="analyze", program="other.mc")
        assert len(ledger.runs()) == 3
        assert len(ledger.runs(kind="analyze")) == 2
        assert len(ledger.runs(program="other.mc")) == 1
        rows = ledger.runs(limit=2)
        assert [r["run_id"] for r in rows] == [1, 2]


def test_series_split_by_fingerprint(tmp_path):
    with make_ledger(tmp_path) as ledger:
        record_run(ledger, fingerprint="fpA")
        record_run(ledger, fingerprint="fpA")
        record_run(ledger, fingerprint="fpB")
        series = ledger.series()
    assert [(s["fingerprint"], s["runs"]) for s in series] == [
        ("fpA", 2), ("fpB", 1)
    ]


def test_ledger_persists_across_handles(tmp_path):
    with make_ledger(tmp_path) as ledger:
        record_run(ledger)
    with RunLedger(str(tmp_path / "ledger")) as reopened:
        assert len(reopened.runs()) == 1


def test_resolve_ledger_dir_precedence(tmp_path, monkeypatch):
    from repro.api import AnalysisConfig

    monkeypatch.delenv(LEDGER_DIR_ENV, raising=False)
    assert resolve("ledger_dir") is None
    assert AnalysisConfig().resolved().ledger_dir is None
    monkeypatch.setenv(LEDGER_DIR_ENV, str(tmp_path))
    assert resolve("ledger_dir") == str(tmp_path)
    assert AnalysisConfig().resolved().ledger_dir == str(tmp_path)
    assert resolve("ledger_dir", "/explicit") == "/explicit"
    assert AnalysisConfig(ledger_dir="off").resolved().ledger_dir is None


# -- trends and regressions ----------------------------------------------------


def test_trends_against_rolling_median(tmp_path):
    with make_ledger(tmp_path) as ledger:
        for wall in (10.0, 12.0, 14.0):
            record_run(ledger, wall_ms=wall)
        record_run(ledger, wall_ms=24.0)
        (trend,) = ledger.trends()
    assert trend["runs"] == 4
    assert trend["median_wall_ms"] == pytest.approx(12.0)
    assert trend["wall_ms_delta_pct"] == pytest.approx(100.0)


def test_single_run_cannot_regress(tmp_path):
    with make_ledger(tmp_path) as ledger:
        record_run(ledger, wall_ms=1e6, saved=0)
        assert ledger.check_regressions() == []


def test_wall_time_regression_flagged(tmp_path):
    with make_ledger(tmp_path) as ledger:
        for _ in range(3):
            record_run(ledger, wall_ms=10.0)
        record_run(ledger, wall_ms=15.0)
        (reg,) = ledger.check_regressions(threshold_pct=20.0)
        assert "wall time rose" in reg["reasons"][0]
        # A looser threshold accepts the same data.
        assert ledger.check_regressions(threshold_pct=60.0) == []


def test_executions_saved_drop_flagged(tmp_path):
    with make_ledger(tmp_path) as ledger:
        for _ in range(3):
            record_run(ledger, saved=20)
        record_run(ledger, saved=5)
        (reg,) = ledger.check_regressions(threshold_pct=20.0)
    assert "executions saved dropped" in reg["reasons"][0]


def test_zero_median_saved_is_not_a_regression(tmp_path):
    with make_ledger(tmp_path) as ledger:
        for _ in range(3):
            record_run(ledger, saved=0)
        record_run(ledger, saved=0)
        assert ledger.check_regressions() == []


def test_window_bounds_the_median(tmp_path):
    with make_ledger(tmp_path) as ledger:
        # Ancient slow runs must not mask a recent regression.
        for _ in range(5):
            record_run(ledger, wall_ms=100.0)
        for _ in range(5):
            record_run(ledger, wall_ms=10.0)
        record_run(ledger, wall_ms=20.0)
        assert ledger.check_regressions(threshold_pct=50.0, window=5)
        assert not ledger.check_regressions(threshold_pct=50.0, window=10)


# -- tier counts (ledger schema v2) -------------------------------------------


def test_tiers_round_trip(tmp_path):
    with make_ledger(tmp_path) as ledger:
        record_run(ledger, tiers={"DOALL": 2, "PIPELINE": 1})
        (row,) = ledger.runs()
    assert row["tiers"] == {"DOALL": 2, "PIPELINE": 1}


def test_tiers_default_empty(tmp_path):
    with make_ledger(tmp_path) as ledger:
        record_run(ledger)
        (row,) = ledger.runs()
    assert row["tiers"] == {}


def test_trends_surface_latest_tiers(tmp_path):
    with make_ledger(tmp_path) as ledger:
        record_run(ledger, tiers={"DOALL": 1})
        record_run(ledger, tiers={"DOALL": 1, "PIPELINE": 2})
        (trend,) = ledger.trends()
    assert trend["latest_tiers"] == {"DOALL": 1, "PIPELINE": 2}


def test_v1_ledger_migrates_in_place(tmp_path):
    # Build a schema-v1 database by hand (no tiers column), then reopen
    # it through RunLedger: the ALTER TABLE migration must add the
    # column without touching the existing rows.
    import sqlite3

    from repro.obs.ledger import LEDGER_DB_NAME

    directory = tmp_path / "ledger"
    directory.mkdir()
    conn = sqlite3.connect(str(directory / LEDGER_DB_NAME))
    conn.executescript("""
        CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
        CREATE TABLE runs (
            run_id INTEGER PRIMARY KEY AUTOINCREMENT,
            recorded_at REAL NOT NULL,
            kind TEXT NOT NULL,
            program TEXT NOT NULL,
            fingerprint TEXT NOT NULL,
            wall_ms REAL NOT NULL,
            schedule_executions INTEGER NOT NULL DEFAULT 0,
            executions_saved INTEGER NOT NULL DEFAULT 0,
            cache_hits INTEGER NOT NULL DEFAULT 0,
            cache_misses INTEGER NOT NULL DEFAULT 0,
            verdicts TEXT NOT NULL DEFAULT '{}',
            stage_times TEXT NOT NULL DEFAULT '{}',
            extra TEXT
        );
        CREATE INDEX runs_series
            ON runs (kind, program, fingerprint, run_id);
        INSERT INTO meta (key, value) VALUES ('schema_version', '1');
        INSERT INTO runs (recorded_at, kind, program, fingerprint, wall_ms,
                          verdicts)
            VALUES (1.0, 'analyze', 'old.mc', 'fp0', 5.0,
                    '{"commutative": 1}');
    """)
    conn.commit()
    conn.close()

    with RunLedger(str(directory), clock=FakeClock()) as ledger:
        rows = ledger.runs()
        assert len(rows) == 1
        assert rows[0]["verdicts"] == {"commutative": 1}
        assert rows[0]["tiers"] == {}  # backfilled default
        record_run(ledger, tiers={"SEQUENTIAL": 1})
        rows = ledger.runs()
    assert rows[1]["tiers"] == {"SEQUENTIAL": 1}


def test_session_records_tier_counts(tmp_path):
    from repro.api import AnalysisConfig, AnalysisSession

    source = PROGRAM
    ledger_dir = str(tmp_path / "ledger")
    with AnalysisSession(
        AnalysisConfig(ledger_dir=ledger_dir, tiering=True)
    ) as session:
        session.analyze(source, source_path="prog.mc")
    with AnalysisSession(
        AnalysisConfig(ledger_dir=ledger_dir, tiering=False)
    ) as session:
        session.analyze(source, source_path="prog.mc")
    with RunLedger(ledger_dir) as ledger:
        tiered, untiered = ledger.runs()
    assert sum(tiered["tiers"].values()) == sum(
        tiered["verdicts"].values()
    )
    assert untiered["tiers"] == {}


# -- session integration -------------------------------------------------------


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(PROGRAM)
    return str(path)


def test_session_records_analyze_runs(program_file, tmp_path):
    from repro.api import AnalysisConfig, AnalysisSession

    ledger_dir = str(tmp_path / "ledger")
    config = AnalysisConfig(ledger_dir=ledger_dir)
    for _ in range(2):
        with AnalysisSession(config) as session:
            session.analyze(open(program_file).read(),
                            source_path=program_file)
    with RunLedger(ledger_dir) as ledger:
        rows = ledger.runs()
    assert len(rows) == 2
    for row in rows:
        assert row["kind"] == "analyze"
        assert row["program"] == program_file
        assert row["fingerprint"] == config.fingerprint()
        assert row["wall_ms"] > 0
        assert row["verdicts"]


def test_ledger_off_sentinel_beats_env(program_file, tmp_path, monkeypatch):
    from repro.api import AnalysisConfig, AnalysisSession

    ledger_dir = tmp_path / "ledger"
    monkeypatch.setenv(LEDGER_DIR_ENV, str(ledger_dir))
    with AnalysisSession(AnalysisConfig(ledger_dir="off")) as session:
        session.analyze(open(program_file).read(), source_path=program_file)
    assert not ledger_dir.exists()


def test_ledger_dir_not_in_fingerprint(tmp_path):
    from repro.api import AnalysisConfig

    base = AnalysisConfig()
    assert base.fingerprint() == AnalysisConfig(
        ledger_dir=str(tmp_path)
    ).fingerprint()


# -- repro stats CLI -----------------------------------------------------------


def test_stats_no_ledger_exits_2(monkeypatch, capsys):
    monkeypatch.delenv(LEDGER_DIR_ENV, raising=False)
    assert main(["stats"]) == 2
    assert "no ledger" in capsys.readouterr().err


def test_stats_empty_ledger_exits_0(tmp_path, capsys):
    ledger_dir = str(tmp_path / "ledger")
    RunLedger(ledger_dir).close()
    assert main(["stats", "--ledger", ledger_dir]) == 0
    assert "no runs recorded" in capsys.readouterr().out


def test_stats_healthy_ledger_exits_0(tmp_path, capsys):
    ledger_dir = str(tmp_path / "ledger")
    with RunLedger(ledger_dir, clock=FakeClock()) as ledger:
        for _ in range(4):
            record_run(ledger, wall_ms=10.0)
    assert main(["stats", "--ledger", ledger_dir]) == 0
    out = capsys.readouterr().out
    assert "prog.mc" in out
    assert "no regressions" in out


def test_stats_renders_tier_column(tmp_path, capsys):
    ledger_dir = str(tmp_path / "ledger")
    with RunLedger(ledger_dir, clock=FakeClock()) as ledger:
        record_run(ledger, tiers={"DOALL": 2, "PIPELINE": 1})
        record_run(ledger, program="plain.mc")  # no tiers recorded
    assert main(["stats", "--ledger", ledger_dir]) == 0
    out = capsys.readouterr().out
    assert "tiers" in out  # column header
    assert "DOALL=2 PIPELINE=1" in out
    assert "-" in out  # untiered series placeholder


def test_stats_exits_1_on_injected_regression(tmp_path, capsys):
    ledger_dir = str(tmp_path / "ledger")
    with RunLedger(ledger_dir, clock=FakeClock()) as ledger:
        for _ in range(4):
            record_run(ledger, wall_ms=10.0, saved=20)
        # Synthetic regression: 3x wall time, saved work gone.
        record_run(ledger, wall_ms=30.0, saved=0)
    assert main(["stats", "--ledger", ledger_dir]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION analyze prog.mc" in out


def test_stats_json_reports_trends_and_regressions(tmp_path, capsys):
    ledger_dir = str(tmp_path / "ledger")
    with RunLedger(ledger_dir, clock=FakeClock()) as ledger:
        for _ in range(4):
            record_run(ledger, wall_ms=10.0)
        record_run(ledger, wall_ms=50.0)
    assert main(["stats", "--ledger", ledger_dir, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["trends"]
    assert payload["regressions"][0]["reasons"]


def test_stats_threshold_flag_loosens_check(tmp_path, capsys):
    ledger_dir = str(tmp_path / "ledger")
    with RunLedger(ledger_dir, clock=FakeClock()) as ledger:
        for _ in range(4):
            record_run(ledger, wall_ms=10.0)
        record_run(ledger, wall_ms=14.0)
    assert main(["stats", "--ledger", ledger_dir, "--threshold", "20"]) == 1
    capsys.readouterr()
    assert main(["stats", "--ledger", ledger_dir, "--threshold", "80"]) == 0
