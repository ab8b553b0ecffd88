"""Persistent analysis cache: store units + analyzer integration.

The load-bearing property is at the bottom: a warm re-analysis must
serialize **byte-identically** to both its own cold run and an entirely
uncached run, while avoiding every schedule execution the cold run paid
for.  The store units above it pin the sqlite-level behaviours that
property rests on (modes, invalidation, gc, semantics purge, verify).
"""

import json
import sqlite3

import pytest

import repro.obs as obs
from repro.api import AnalysisConfig, AnalysisSession
from repro.cache import AnalysisCache, open_cache
from repro.cache.keys import SEMANTICS_VERSION
from repro.cache.store import CACHE_DB_NAME
from repro.core.dca import DcaAnalyzer
from repro.core.report import DECIDED_CACHE, DECIDED_DYNAMIC
from repro.driver import compile_program
from repro.settings import resolve

PROGRAM = """
func void main() {
  int[] a = new int[24];
  int s = 0;
  for (int i = 0; i < 24; i = i + 1) {
    a[i] = i * 7 % 5;
  }
  for (int i = 0; i < 24; i = i + 1) {
    s += a[i];
  }
  print(s);
}
"""

PAYLOAD = {"result": {"verdict": "commutative"}, "skipped": {}}


def _zero() -> float:
    return 0.0


@pytest.fixture
def cache(tmp_path):
    with AnalysisCache(str(tmp_path)) as store:
        yield store


def _analyze(cache, source=PROGRAM, **kwargs):
    defaults = dict(
        static_filter=False, backend="serial", cache=cache, source_text=source,
    )
    defaults.update(kwargs)
    with obs.disabled(clock=_zero):
        return DcaAnalyzer(compile_program(source), **defaults).analyze()


# ---------------------------------------------------------------------------
# Store units
# ---------------------------------------------------------------------------


def test_miss_then_hit(cache):
    assert cache.lookup("m1", "L0", "f1") is None
    assert cache.store("m1", "L0", "f1", PAYLOAD)
    assert cache.lookup("m1", "L0", "f1") == PAYLOAD
    # Key is the full triple: any component changing is a miss.
    assert cache.lookup("m2", "L0", "f1") is None
    assert cache.lookup("m1", "L1", "f1") is None
    assert cache.lookup("m1", "L0", "f2") is None


def test_hit_accounting(cache):
    cache.store("m1", "L0", "f1", PAYLOAD)
    cache.lookup("m1", "L0", "f1")
    cache.lookup("m1", "L0", "f1")
    assert cache.stats()["total_hits"] == 2


def test_ro_mode_reads_but_never_writes(tmp_path):
    with AnalysisCache(str(tmp_path)) as rw:
        rw.store("m1", "L0", "f1", PAYLOAD)
    with AnalysisCache(str(tmp_path), mode="ro") as ro:
        assert ro.lookup("m1", "L0", "f1") == PAYLOAD
        assert not ro.store("m1", "L1", "f1", PAYLOAD)
        assert ro.stats()["entries"] == 1
        # ro hits must not bump usage counters either.
        assert ro.stats()["total_hits"] == 0


def test_refresh_mode_always_misses_but_stores(tmp_path):
    with AnalysisCache(str(tmp_path)) as rw:
        rw.store("m1", "L0", "f1", PAYLOAD)
    fresher = {"result": {"verdict": "non-commutative"}, "skipped": {}}
    with AnalysisCache(str(tmp_path), mode="refresh") as refresh:
        assert refresh.lookup("m1", "L0", "f1") is None
        assert refresh.store("m1", "L0", "f1", fresher)
    with AnalysisCache(str(tmp_path)) as rw:
        assert rw.lookup("m1", "L0", "f1") == fresher


def test_stale_sibling_detects_invalidation(cache):
    cache.store("m1", "L0", "f-old", PAYLOAD)
    assert cache.has_stale_sibling("m1", "L0", "f-new")
    assert not cache.has_stale_sibling("m1", "L1", "f-new")
    assert not cache.has_stale_sibling("m1", "L0", "f-old")


def test_clear(cache):
    cache.store("m1", "L0", "f1", PAYLOAD)
    cache.store("m1", "L1", "f1", PAYLOAD)
    assert cache.clear() == 2
    assert cache.stats()["entries"] == 0
    assert cache.lookup("m1", "L0", "f1") is None


def test_gc_age_and_lru(tmp_path):
    now = [0.0]
    with AnalysisCache(str(tmp_path), clock=lambda: now[0]) as cache:
        cache.store("m1", "old", "f1", PAYLOAD)
        now[0] = 10 * 86400.0
        for i in range(3):
            cache.store("m1", f"new{i}", "f1", PAYLOAD)
        result = cache.gc(max_age_days=5)
        assert result["removed_age"] == 1
        result = cache.gc(max_entries=2)
        assert result["removed_lru"] == 1
        assert result["remaining"] == 2


def test_semantics_version_purge(tmp_path):
    with AnalysisCache(str(tmp_path)) as cache:
        cache.store("m1", "L0", "f1", PAYLOAD)
        path = cache.path
    with sqlite3.connect(path) as conn:
        conn.execute(
            "UPDATE meta SET value=? WHERE key='semantics_version'",
            (str(SEMANTICS_VERSION - 1),),
        )
    # Reopening against an older semantics version must purge wholesale:
    # entries computed under different analyzer semantics are poison.
    with AnalysisCache(str(tmp_path)) as cache:
        assert cache.lookup("m1", "L0", "f1") is None
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["semantics_purges"] == 1
        assert stats["semantics_version"] == SEMANTICS_VERSION


def test_resolve_cache_dir_precedence(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert resolve("cache_dir") is None
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    assert resolve("cache_dir") == str(tmp_path / "env")
    assert resolve("cache_dir", str(tmp_path / "flag")) == str(tmp_path / "flag")
    assert open_cache(None, mode="off") is None


# ---------------------------------------------------------------------------
# Analyzer integration
# ---------------------------------------------------------------------------


def test_cold_populates_warm_replays(cache):
    cold = _analyze(cache)
    dynamic = sum(
        1
        for r in cold.results.values()
        if r.decided_by == DECIDED_DYNAMIC
    )
    assert dynamic == 2
    assert (cold.cache.hits, cold.cache.stores) == (0, dynamic)

    warm = _analyze(cache)
    assert (warm.cache.hits, warm.cache.misses) == (dynamic, 0)
    assert warm.cache.schedule_executions_avoided == cold.schedule_executions
    for result in warm.results.values():
        assert result.decided_by == DECIDED_CACHE
        assert result.from_cache
        # Serialization folds the replay back into its origin stage.
        assert result.serialized_decided_by == DECIDED_DYNAMIC


def test_warm_report_byte_identical_to_cold_and_uncached(cache):
    uncached = _analyze(None)
    cold = _analyze(cache)
    warm = _analyze(cache)
    assert cold.to_json() == uncached.to_json()
    assert warm.to_json() == uncached.to_json()
    # The in-memory provenance differs even though the bytes match.
    assert warm.decided_by_counts() != cold.decided_by_counts()
    assert warm.decided_by_counts(serialized=True) == cold.decided_by_counts(
        serialized=True
    )


def test_config_change_invalidates(cache):
    _analyze(cache)
    warm = _analyze(cache, rtol=1e-3)
    assert warm.cache.hits == 0
    assert warm.cache.misses == 2
    # Same loops cached under the old fingerprint → counted invalidated.
    assert warm.cache.invalidations == 2


def test_entries_shared_across_exec_backends(cache):
    # exec_backend is outside the fingerprint: codegen runs must be
    # served by interp-written entries (the byte-identity contract).
    _analyze(cache, exec_backend="interp")
    warm = _analyze(cache, exec_backend="codegen")
    assert (warm.cache.hits, warm.cache.misses) == (2, 0)


def test_statically_decided_loops_bypass_cache(cache):
    report = _analyze(cache, static_filter=True)
    # This program's loops are statically provable: nothing reaches the
    # dynamic stage, so nothing is cached — and nothing breaks.
    assert report.cache.enabled
    assert report.cache.stores == 0
    assert _analyze(cache, static_filter=True).cache.hits == 0


def test_fault_injection_disables_cache(cache):
    analyzer = DcaAnalyzer(
        compile_program(PROGRAM),
        static_filter=False,
        cache=cache,
        fault_injection={("L0", "reverse"): "raise"},
    )
    assert analyzer.cache is None


def test_cost_summary_mentions_cache(cache):
    _analyze(cache)
    warm = _analyze(cache)
    assert "cache: 2 hits / 0 misses" in warm.cost_summary()
    # The serialized report must NOT mention the cache anywhere.
    assert "cache" not in json.dumps(warm.to_dict())


def test_session_wires_cache(tmp_path):
    config = AnalysisConfig(cache_dir=str(tmp_path), static_filter=False)
    with AnalysisSession(config) as session:
        cold = session.analyze(PROGRAM)
        warm = session.analyze(PROGRAM)
    assert cold.cache.stores == 2
    assert (warm.cache.hits, warm.cache.misses) == (2, 0)
    assert (tmp_path / CACHE_DB_NAME).exists()


def test_verify_passes_on_honest_cache(cache):
    _analyze(cache)
    result = cache.verify(sample=10)
    assert result["checked"] == 2
    assert result["ok"] == 2
    assert result["mismatches"] == []


def test_verify_catches_tampering(tmp_path):
    with AnalysisCache(str(tmp_path)) as cache:
        _analyze(cache)
        path = cache.path
    with sqlite3.connect(path) as conn:
        row = conn.execute(
            "SELECT rowid, payload FROM entries LIMIT 1"
        ).fetchone()
        payload = json.loads(row[1])
        payload["result"]["verdict"] = "non-commutative"
        conn.execute(
            "UPDATE entries SET payload=? WHERE rowid=?",
            (json.dumps(payload), row[0]),
        )
    with AnalysisCache(str(tmp_path)) as cache:
        result = cache.verify(sample=10)
    assert len(result["mismatches"]) == 1
    diffs = result["mismatches"][0]["diffs"]
    assert "verdict" in diffs
