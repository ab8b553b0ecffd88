"""Memoized profile summaries in the persistent analysis cache.

With a cache attached, the profile stage reads the workload's
:class:`~repro.analysis.dynamic_deps.ProfileSummary` from the
``profiles`` table instead of running the dependence profiler, so a
fully warm analysis executes the program once (the golden run).  Every
report must keep its uncached bytes; the cache modes, ``verify``,
``gc``, ``clear`` and the semantics purge must cover the table; and the
CLI's ``--arg`` workloads must key their own rows.
"""

import json
import sqlite3

import pytest

import repro.core.dca as dca
import repro.obs as obs
from repro.analysis.dynamic_deps import DynamicDepProfiler, ProfileSummary
from repro.api import AnalysisConfig, AnalysisSession
from repro.cache import AnalysisCache
from repro.cache.keys import SEMANTICS_VERSION, profile_key
from repro.cli import main
from repro.driver import compile_program
from repro.interp.interpreter import Interpreter

#: One loop the static pre-screen decides (main.L0) and two pointer
#: loops it leaves to the dynamic stage (main.L1, main.L2), so the cache
#: holds both a profile row and loop entries.
PROGRAM = """
struct Node { int value; Node* next; }
func void main() {
  int[] a = new int[10];
  for (int i = 0; i < 10; i = i + 1) { a[i] = i * 3; }
  Node* head = null;
  for (int i = 0; i < 10; i = i + 1) {
    Node* n = new Node;
    n.value = a[i];
    n.next = head;
    head = n;
  }
  int total = 0;
  Node* p = head;
  while (p != null) {
    p.value = p.value * 2 + 1;
    total += p.value;
    p = p.next;
  }
  print(total);
}
"""

#: Every loop decided by the static prover: a profile row, no entries.
STATIC_ONLY = """
func void main() {
  int[] a = new int[8];
  for (int i = 0; i < 8; i = i + 1) { a[i] = i * 2; }
  print(a[3]);
}
"""

PARAM = """
func int main(int n) {
  int[] a = new int[n];
  for (int i = 0; i < n; i = i + 1) { a[i] = i * 2; }
  int s = 0;
  for (int i = 0; i < n; i = i + 1) { s += a[i]; }
  print(s);
  return s;
}
"""


def _zero() -> float:
    return 0.0


def _dca(cache=None, source=PROGRAM, **config):
    """The report of one analysis under the current obs context."""
    config.setdefault("backend", "serial")
    config.setdefault("tiering", True)
    return dca.DcaAnalyzer(
        compile_program(source),
        AnalysisConfig(**config),
        cache=cache,
        source_text=source,
    ).analyze()


def _analyze(cache=None, source=PROGRAM, **config):
    with obs.disabled(clock=_zero):
        return _dca(cache, source, **config)


def _profile_hits(cache, source=PROGRAM, **config):
    """(report, dca.profile_cache_hits) of one observed analysis."""
    with obs.enabled(clock=_zero) as ctx:
        report = _dca(cache, source, **config)
    return report, ctx.metrics.value("dca.profile_cache_hits")


def _profile_rows(path):
    with sqlite3.connect(path) as conn:
        return conn.execute(
            "SELECT module_digest, profile_key, payload, hits FROM profiles "
            "ORDER BY module_digest"
        ).fetchall()


def _tamper_max_trips(path, label="main.L1"):
    with sqlite3.connect(path) as conn:
        ((digest, key, payload_json, _hits),) = conn.execute(
            "SELECT module_digest, profile_key, payload, hits FROM profiles"
        ).fetchall()
        payload = json.loads(payload_json)
        payload["max_trips"][label] += 1
        conn.execute(
            "UPDATE profiles SET payload=? WHERE module_digest=? AND "
            "profile_key=?",
            (json.dumps(payload), digest, key),
        )
    return payload


# -- the memo ------------------------------------------------------------------


def test_warm_analysis_reads_the_summary_and_runs_only_golden(
    tmp_path, monkeypatch
):
    uncached = _analyze()
    with AnalysisCache(str(tmp_path)) as cache:
        cold, cold_hits = _profile_hits(cache)
        created = []
        original = dca.create_executor

        def counting(*args, **kwargs):
            created.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(dca, "create_executor", counting)
        warm, warm_hits = _profile_hits(cache)
    assert (cold_hits, warm_hits) == (0, 1)
    # One executor: the golden run's (it carries the DCA runtime).
    assert len(created) == 1 and "runtime" in created[0]
    assert warm.cache.misses == 0 and warm.cache.hits > 0
    assert warm.to_json() == cold.to_json() == uncached.to_json()
    # The memoized run still counts as the execution it stands for.
    assert warm.executions == uncached.executions
    assert warm.interp_instructions == uncached.interp_instructions


def test_profile_hit_with_every_loop_missing_matches_uncached(tmp_path):
    with AnalysisCache(str(tmp_path)) as cache:
        _analyze(cache, schedule_seed=1)
        fresh, hits = _profile_hits(cache, schedule_seed=2)
    assert hits == 1
    assert fresh.cache.hits == 0 and fresh.cache.misses > 0
    assert fresh.to_json() == _analyze(schedule_seed=2).to_json()


def test_summary_key_ignores_verdict_settings(tmp_path):
    """Seeds, rtol, policy, filter, specs, tiering, labels and exec
    backend share the row; only the step budget keys a new one."""
    with AnalysisCache(str(tmp_path)) as cache:
        _analyze(cache)
        for config in (
            {"schedule_seed": 9, "rtol": 1e-3},
            {"liveout_policy": "eventual", "static_filter": False},
            {"specs": True, "tiering": False},
            {"candidate_labels": ("main.L2",), "exec_backend": "interp"},
        ):
            assert _profile_hits(cache, **config)[1] == 1, config
        assert _profile_hits(cache, max_steps=10**7)[1] == 0
        assert cache.stats()["profiles"] == 2
    assert profile_key(None) != profile_key(10**7)


#: A carried flow (``p``) beside a carried but privatizable scratch
#: slot (``t[0]``, written first in every iteration).
CARRIED = """
func void main() {
  int[] p = new int[9];
  int[] t = new int[2];
  for (int i = 0; i < 8; i = i + 1) {
    t[0] = i * 3;
    p[i + 1] = p[i] + t[0];
  }
  print(p[8]);
}
"""


def test_summary_round_trips_through_the_payload():
    module = compile_program(CARRIED)
    profiler = DynamicDepProfiler(module)
    interp = Interpreter(module, observers=[profiler])
    interp.run("main", [])
    summary = profiler.summary(interp.steps)
    deps = summary.loop("main.L0")
    assert set(deps.carried.values()) == {True, False}
    assert deps.carried_raw and deps.memory_flow
    payload = json.loads(json.dumps(summary.to_payload()))
    assert ProfileSummary.from_payload(payload) == summary


# -- cache modes ----------------------------------------------------------------


def test_ro_reads_profile_rows_but_never_writes(tmp_path):
    with AnalysisCache(str(tmp_path), mode="ro") as ro:
        assert _profile_hits(ro)[1] == 0
        assert ro.stats()["profiles"] == 0
    with AnalysisCache(str(tmp_path)) as rw:
        _analyze(rw)
        path = rw.path
    with AnalysisCache(str(tmp_path), mode="ro") as ro:
        assert _profile_hits(ro)[1] == 1
    # ro hits bump no usage accounting.
    assert [row[3] for row in _profile_rows(path)] == [0]


def test_refresh_reprofiles_and_overwrites(tmp_path):
    with AnalysisCache(str(tmp_path)) as rw:
        _analyze(rw)
        path = rw.path
    (before,) = _profile_rows(path)
    _tamper_max_trips(path)
    with AnalysisCache(str(tmp_path), mode="refresh") as refresh:
        assert _profile_hits(refresh)[1] == 0
    (after,) = _profile_rows(path)
    assert after[2] == before[2]


def test_off_and_fault_injection_never_touch_profiles(tmp_path):
    config = AnalysisConfig(cache_dir=str(tmp_path), cache_mode="off")
    with AnalysisSession(config) as session:
        session.analyze(PROGRAM)
        assert session.cache is None
    with AnalysisCache(str(tmp_path)) as cache:
        with obs.disabled(clock=_zero):
            dca.DcaAnalyzer(
                compile_program(PROGRAM),
                AnalysisConfig(backend="serial"),
                cache=cache,
                fault_injection={("main.L2", "reverse"): "raise"},
            ).analyze()
        assert cache.stats()["profiles"] == 0


# -- maintenance ------------------------------------------------------------------


def test_verify_reprofiles_and_catches_a_tampered_row(tmp_path):
    with AnalysisCache(str(tmp_path)) as cache:
        _analyze(cache)
        honest = cache.verify(sample=10)
        path = cache.path
    assert honest["profiles"] == {"checked": 1, "ok": 1}
    assert honest["mismatches"] == [] and honest["unverifiable"] == []
    payload = _tamper_max_trips(path)
    with AnalysisCache(str(tmp_path)) as cache:
        result = cache.verify(sample=10)
    # Loop entries are counted apart and all still match.
    assert result["ok"] == result["checked"] == honest["checked"]
    assert result["profiles"] == {"checked": 1, "ok": 0}
    (mismatch,) = result["mismatches"]
    assert "loop" not in mismatch
    assert mismatch["profile"] == profile_key(None)
    assert list(mismatch["diffs"]) == ["max_trips"]
    assert mismatch["diffs"]["max_trips"]["expected"] == payload["max_trips"]


def _orphans(path):
    with sqlite3.connect(path) as conn:
        (count,) = conn.execute(
            "SELECT COUNT(*) FROM profiles WHERE module_digest NOT IN "
            "(SELECT module_digest FROM entries)"
        ).fetchone()
    return count


def test_gc_and_clear_leave_no_orphan_profiles(tmp_path):
    now = [0.0]
    with AnalysisCache(str(tmp_path), clock=lambda: now[0]) as cache:
        _analyze(cache)
        _analyze(cache, source=STATIC_ONLY)
        assert cache.stats()["profiles"] == 2
        # STATIC_ONLY has no loop entry: its row goes with the gc.
        assert cache.gc()["removed_profiles"] == 1
        assert _orphans(cache.path) == 0
        assert cache.stats()["profiles"] == 1
        # The age rule expires the entries and the profile row alike.
        now[0] = 10 * 86400.0
        result = cache.gc(max_age_days=5)
        assert result["removed_profiles"] == 1 and result["remaining"] == 0
        assert cache.stats()["profiles"] == 0
        _analyze(cache)
        assert cache.stats()["profiles"] == 1
        cache.clear()
        assert cache.stats()["profiles"] == 0


def test_semantics_purge_drops_profile_rows(tmp_path):
    with AnalysisCache(str(tmp_path)) as cache:
        _analyze(cache)
        path = cache.path
    with sqlite3.connect(path) as conn:
        conn.execute(
            "UPDATE meta SET value=? WHERE key='semantics_version'",
            (str(SEMANTICS_VERSION - 1),),
        )
    with AnalysisCache(str(tmp_path)) as cache:
        assert cache.stats()["profiles"] == 0


# -- CLI entry arguments ---------------------------------------------------------------


@pytest.fixture()
def param_file(tmp_path):
    path = tmp_path / "param.mc"
    path.write_text(PARAM)
    return str(path)


def test_cli_arg_gives_the_config_args_report(param_file, capsys):
    with obs.disabled(clock=_zero):
        code = main([
            "analyze", param_file, "--arg", "8", "--json", "--no-cache",
            "--no-ledger",
        ])
        config = AnalysisConfig(args=(8,), cache_mode="off", ledger_dir="off")
        with AnalysisSession(config) as session:
            expected = session.analyze(PARAM, source_path=param_file)
    assert code == 0
    assert capsys.readouterr().out.strip() == expected.to_json()


@pytest.mark.parametrize("command", ["run", "analyze", "detect", "profile"])
def test_cli_arity_mismatch_is_a_one_line_error(param_file, capsys, command):
    assert main([command, param_file]) == 2
    err = capsys.readouterr().err
    assert err == "error: main expects 1 args, got 0\n"


def test_cli_arg_must_be_a_json_scalar(param_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", param_file, "--arg", "[8]"])
    assert exc.value.code == 2
    assert "not a JSON scalar" in capsys.readouterr().err


def test_cli_args_store_their_own_profile_rows(param_file, tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    for value in ("8", "9"):
        assert main([
            "analyze", param_file, "--arg", value, "--cache", cache_dir,
            "--no-ledger",
        ]) == 0
    with AnalysisCache(cache_dir) as cache:
        assert cache.stats()["profiles"] == 2
    rows = _profile_rows(str(tmp_path / "cache" / "dca-cache.sqlite"))
    steps = {json.loads(row[2])["steps"] for row in rows}
    assert len(steps) == 2
