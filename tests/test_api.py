"""The ``repro.api`` facade: config fingerprints, precedence, sessions.

Covers the three contracts the facade introduces:

* :meth:`AnalysisConfig.fingerprint` is the exact config component of
  the persistent cache key — sensitive to every verdict-relevant knob,
  insensitive to backends/jobs/observability/cache policy.
* Explicit flags always beat the matching ``REPRO_*`` environment
  variables (the documented precedence order).
* :class:`AnalysisSession` drives analyze/detect/profile end-to-end and
  the legacy ``repro.driver`` entry points survive as deprecation shims.
"""


import pytest

import repro.obs as obs
from repro.api import AnalysisConfig, AnalysisSession
from repro.core.schedule_engine import resolve_schedule_backend
from repro.interp.compiler import resolve_exec_backend

PROGRAM = """
func void main() {
  int[] a = new int[32];
  int s = 0;
  for (int i = 0; i < 32; i = i + 1) {
    a[i] = i * 3 + 1;
  }
  for (int i = 0; i < 32; i = i + 1) {
    s += a[i];
  }
  print(s);
}
"""


# ---------------------------------------------------------------------------
# AnalysisConfig value semantics and validation
# ---------------------------------------------------------------------------


def test_config_is_frozen_and_hashable():
    config = AnalysisConfig()
    with pytest.raises(Exception):
        config.rtol = 0.5
    assert hash(config) == hash(AnalysisConfig())
    assert config == AnalysisConfig()
    assert config != config.replace(rtol=1e-3)


def test_config_normalizes_mutable_fields():
    config = AnalysisConfig(args=[1, 2], candidate_labels=["L0"])
    assert config.args == (1, 2)
    assert config.candidate_labels == ("L0",)
    hash(config)  # must not raise


@pytest.mark.parametrize(
    "kwargs",
    [
        {"liveout_policy": "bogus"},
        {"cache_mode": "bogus"},
        {"backend": "threads"},
        {"exec_backend": "jit"},
    ],
)
def test_config_rejects_unknown_values(kwargs):
    with pytest.raises(ValueError):
        AnalysisConfig(**kwargs)


# ---------------------------------------------------------------------------
# Fingerprint: the config half of the cache key
# ---------------------------------------------------------------------------


def test_fingerprint_is_stable():
    assert AnalysisConfig().fingerprint() == AnalysisConfig().fingerprint()


@pytest.mark.parametrize(
    "changes",
    [
        {"rtol": 1e-3},
        {"liveout_policy": "eventual"},
        {"static_filter": False},
        {"max_steps": 10_000},
        {"schedule_seed": 7},
        {"n_random_schedules": 3},
        {"candidate_labels": ("L0",)},
    ],
)
def test_fingerprint_changes_with_verdict_relevant_knobs(changes):
    assert (
        AnalysisConfig().fingerprint()
        != AnalysisConfig(**changes).fingerprint()
    )


@pytest.mark.parametrize(
    "changes",
    [
        {"backend": "process", "jobs": 4},
        {"exec_backend": "codegen"},
        {"obs": True},
        {"cache_dir": "/tmp/some-cache", "cache_mode": "refresh"},
        {"entry": "other", "args": (1,)},
    ],
)
def test_fingerprint_ignores_non_verdict_knobs(changes):
    # Backends/jobs/obs/cache are the byte-identity axes: entries must be
    # shared across them.  entry/args live in the *module* digest, not
    # the config fingerprint.
    assert (
        AnalysisConfig().fingerprint()
        == AnalysisConfig(**changes).fingerprint()
    )


def test_fingerprint_matches_analyzer_cache_key():
    # The facade's fingerprint must be the exact key DcaAnalyzer uses,
    # or cache entries written by one would be invisible to the other.
    with AnalysisSession(AnalysisConfig(cache_mode="off")) as session:
        module = session.compile(PROGRAM)
        analyzer = session.analyzer(module)
        assert session.config.fingerprint() == analyzer.config_fingerprint()


# ---------------------------------------------------------------------------
# Precedence: explicit flags beat the environment
# ---------------------------------------------------------------------------


def test_explicit_backend_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULE_BACKEND", "process")
    monkeypatch.delenv("REPRO_SCHEDULE_JOBS", raising=False)
    assert resolve_schedule_backend("serial", None) == ("serial", None)


def test_explicit_jobs_imply_process_despite_env_serial(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULE_BACKEND", "serial")
    assert resolve_schedule_backend(None, 4) == ("process", 4)


def test_env_backend_applies_without_flags(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULE_BACKEND", "process")
    monkeypatch.delenv("REPRO_SCHEDULE_JOBS", raising=False)
    assert resolve_schedule_backend(None, None) == ("process", None)


def test_env_jobs_imply_process(monkeypatch):
    monkeypatch.delenv("REPRO_SCHEDULE_BACKEND", raising=False)
    monkeypatch.setenv("REPRO_SCHEDULE_JOBS", "3")
    assert resolve_schedule_backend(None, None) == ("process", 3)


def test_explicit_single_job_stays_serial(monkeypatch):
    monkeypatch.delenv("REPRO_SCHEDULE_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_SCHEDULE_JOBS", raising=False)
    assert resolve_schedule_backend(None, 1) == ("serial", 1)


def test_explicit_exec_backend_beats_env(monkeypatch):
    # The explicit argument must beat REPRO_EXEC_BACKEND for every
    # backend pairing — the same precedence contract documented on
    # resolve_schedule_backend.
    from repro.interp.compiler import EXEC_BACKENDS

    for env_choice in EXEC_BACKENDS:
        monkeypatch.setenv("REPRO_EXEC_BACKEND", env_choice)
        assert resolve_exec_backend(None) == env_choice
        for explicit in EXEC_BACKENDS:
            assert resolve_exec_backend(explicit) == explicit


def test_config_resolution_uses_precedence(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULE_BACKEND", "serial")
    monkeypatch.setenv("REPRO_EXEC_BACKEND", "codegen")
    config = AnalysisConfig(jobs=2, exec_backend="interp")
    assert config.resolved_backend() == ("process", 2)
    assert config.resolved_exec_backend() == "interp"
    assert AnalysisConfig().resolved_exec_backend() == "codegen"
    monkeypatch.setenv("REPRO_EXEC_BACKEND", "interp")
    assert AnalysisConfig(
        exec_backend="codegen"
    ).resolved_exec_backend() == "codegen"


def test_cache_mode_off_ignores_env_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert AnalysisConfig().resolved_cache_dir() == str(tmp_path)
    assert AnalysisConfig(cache_mode="off").resolved_cache_dir() is None


def test_cli_backend_flag_beats_env(monkeypatch, capsys):
    # End-to-end: the CLI flag must win even with the env var set.
    from repro.cli import main

    monkeypatch.setenv("REPRO_SCHEDULE_BACKEND", "process")
    monkeypatch.setenv("REPRO_EXEC_BACKEND", "codegen")
    assert main(
        ["analyze", "examples/array_map.mc", "--backend", "serial",
         "--exec-backend", "interp", "--no-cache"]
    ) == 0
    assert "commutative" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# AnalysisSession end-to-end
# ---------------------------------------------------------------------------


def test_session_analyze():
    with AnalysisSession(AnalysisConfig(cache_mode="off")) as session:
        report = session.analyze(PROGRAM)
    assert len(report.results) == 2
    assert len(report.commutative_loops()) == 2


def test_session_detect():
    with AnalysisSession(AnalysisConfig(cache_mode="off")) as session:
        outcome = session.detect(PROGRAM)
    assert len(outcome.report.results) == 2
    assert set(outcome.detector_names) == set(outcome.baselines)
    verdicts = outcome.baseline_verdicts()
    assert set(verdicts) == set(outcome.detector_names)
    assert "profile" in outcome.costs


def test_session_profile():
    try:
        with AnalysisSession(AnalysisConfig(cache_mode="off")) as session:
            report, ctx = session.profile(PROGRAM)
        assert ctx.enabled
        names = {rec.name for rec in ctx.tracer.spans}
        assert "repro.compile" in names
        assert len(report.results) == 2
    finally:
        obs.disable()


def test_session_accepts_module():
    with AnalysisSession(AnalysisConfig(cache_mode="off")) as session:
        module = session.compile(PROGRAM)
        report = session.analyze(module)
    assert len(report.results) == 2
