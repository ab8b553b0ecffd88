"""Persistent, content-addressed analysis cache (sqlite3, stdlib-only).

The store memoizes per-loop DCA verdicts — the full
:class:`~repro.core.report.LoopResult` payload plus the loop's
contribution to report-level accounting — keyed by
``(module digest, loop id, config fingerprint)``, and one profile summary
per workload keyed by ``(module digest, profile key)`` (see
:mod:`repro.cache.keys`).  Layout::

    <cache dir>/dca-cache.sqlite
        meta          schema + semantics version, purge counters
        entries       the memoized payloads (JSON), usage accounting
        fingerprints  fingerprint -> canonical config description
        modules       module digest -> source provenance (for `verify`)
        profiles      profile summaries (JSON) + their step budget,
                      usage accounting

Profile rows are looked up before any loop entry and outside the
access counters: ``lookups``/``hits``/``misses``/``stores`` and
``repro cache stats``' traffic line count loop entries only.

Properties the rest of the pipeline relies on:

* **Byte-faithful payloads.**  ``payload`` is JSON whose floats
  round-trip exactly; a warm replay reconstructs the cold run's
  ``LoopResult`` bit-for-bit (enforced by ``tests/test_cache.py`` and
  ``benchmarks/test_cache_warm_speedup.py``).
* **Self-invalidation.**  The fingerprint is part of the key, so any
  config change is an automatic miss; such stale-sibling misses are
  counted as *invalidations*.  A :data:`~repro.cache.keys.SEMANTICS_VERSION`
  mismatch purges the whole store on open.
* **Multi-process safety.**  Batch workers open their own connections;
  writes are short transactions under a generous busy timeout (WAL when
  the filesystem allows it).
* **Multi-thread safety.**  One handle may be shared across threads —
  the serving daemon funnels every request through a single rw handle —
  so the connection is opened with ``check_same_thread=False`` and all
  statement execution is serialized under an internal lock.  Lock hold
  times are single statements or one short transaction; sqlite itself
  remains the concurrency bottleneck, not the lock.
* **Verifiability.**  When source text is registered for a module,
  ``verify`` can recompile it, re-execute a sample of cached loops with
  the exact recorded configuration, and cross-check verdicts, snapshot
  digests and golden snapshot tallies; it re-profiles a sample of
  profile rows the same way and compares the summaries field by field.
"""

from __future__ import annotations

import json
import os
import random
import sqlite3
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

import repro.obs as obs
from repro.cache.keys import SEMANTICS_VERSION, profile_key

__all__ = ["AnalysisCache", "CACHE_DB_NAME", "CACHE_MODES"]

#: Access counters kept per handle and persisted (summed) into ``meta``
#: on close, so ``repro cache stats`` reports traffic across every run
#: that touched the store, not just row counts.
_LIFETIME_COUNTERS = ("lookups", "hits", "misses", "invalidations", "stores")

CACHE_DB_NAME = "dca-cache.sqlite"

#: ``rw`` reads and writes; ``ro`` only reads; ``refresh`` recomputes
#: everything and overwrites (reads are bypassed).
CACHE_MODES = ("rw", "ro", "refresh")

_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS entries (
    module_digest TEXT NOT NULL,
    loop_id TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    payload TEXT NOT NULL,
    created_at REAL NOT NULL,
    last_used_at REAL NOT NULL,
    hits INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (module_digest, loop_id, fingerprint)
);
CREATE TABLE IF NOT EXISTS fingerprints (
    fingerprint TEXT PRIMARY KEY,
    description TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS modules (
    module_digest TEXT PRIMARY KEY,
    source_path TEXT,
    source_text TEXT,
    entry TEXT NOT NULL DEFAULT 'main',
    args_json TEXT
);
CREATE TABLE IF NOT EXISTS profiles (
    module_digest TEXT NOT NULL,
    profile_key TEXT NOT NULL,
    max_steps INTEGER,
    payload TEXT NOT NULL,
    created_at REAL NOT NULL,
    last_used_at REAL NOT NULL,
    hits INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (module_digest, profile_key)
);
"""


class AnalysisCache:
    """One open handle on a persistent analysis cache directory."""

    def __init__(
        self,
        directory: str,
        mode: str = "rw",
        clock: Optional[Callable[[], float]] = None,
    ):
        if mode not in CACHE_MODES:
            raise ValueError(
                f"unknown cache mode {mode!r}; expected one of {CACHE_MODES}"
            )
        self.directory = str(directory)
        self.mode = mode
        self._clock = clock or time.time
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, CACHE_DB_NAME)
        # One handle may serve many threads (the serve daemon shares a
        # single rw handle across its worker threads); sqlite's
        # same-thread check is replaced by our own statement lock.
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path, timeout=30.0, check_same_thread=False
        )
        self._conn.executescript(_SCHEMA)
        try:  # WAL keeps concurrent batch workers off each other's locks
            self._conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.DatabaseError:  # pragma: no cover - fs-dependent
            pass
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._session_counts: Dict[str, int] = dict.fromkeys(
            _LIFETIME_COUNTERS, 0
        )
        self._check_versions()

    # -- lifecycle ---------------------------------------------------------

    def _check_versions(self) -> None:
        """Purge wholesale when the store predates the current semantics."""
        with self._lock, self._conn:
            rows = dict(
                self._conn.execute("SELECT key, value FROM meta").fetchall()
            )
            stored = rows.get("semantics_version")
            if stored is not None and int(stored) != SEMANTICS_VERSION:
                self._conn.execute("DELETE FROM entries")
                self._conn.execute("DELETE FROM fingerprints")
                self._conn.execute("DELETE FROM profiles")
                purged = int(rows.get("semantics_purges", "0")) + 1
                self._set_meta("semantics_purges", str(purged))
            self._set_meta("schema_version", str(_SCHEMA_VERSION))
            self._set_meta("semantics_version", str(SEMANTICS_VERSION))

    def _set_meta(self, key: str, value: str) -> None:
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
            (key, value),
        )

    def _bump(self, name: str, n: int = 1) -> None:
        """Count one cache access: session counter + obs metric."""
        with self._lock:
            self._session_counts[name] += n
        ctx = obs.current()
        if ctx.enabled:
            ctx.count(f"cache.{name}", n)

    def _flush_lifetime_counts(self) -> None:
        """Fold the session's access counters into the persistent meta
        table (skipped in read-only mode, which must not write)."""
        if self.mode == "ro":
            return
        with self._lock:
            pending = {k: v for k, v in self._session_counts.items() if v}
            if not pending:
                return
            try:
                with self._conn:
                    for name, n in pending.items():
                        self._conn.execute(
                            "INSERT INTO meta (key, value) VALUES (?, ?) "
                            "ON CONFLICT(key) DO UPDATE SET value=CAST("
                            "CAST(value AS INTEGER) + CAST(excluded.value "
                            "AS INTEGER) AS TEXT)",
                            (f"lifetime_{name}", str(n)),
                        )
                for name in pending:
                    self._session_counts[name] = 0
            except sqlite3.Error:  # pragma: no cover - racing close/deletion
                pass

    def close(self) -> None:
        self._flush_lifetime_counts()
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "AnalysisCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- memoization -------------------------------------------------------

    def lookup(
        self, module_digest: str, loop_id: str, fingerprint: str
    ) -> Optional[Dict[str, object]]:
        """The cached payload for one loop, or None on a miss.

        A hit bumps the entry's usage accounting (except in ``ro`` mode,
        which must not write).  ``refresh`` mode always misses so the
        caller recomputes and overwrites.
        """
        if self.mode == "refresh":
            return None
        self._bump("lookups")
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM entries WHERE module_digest=? AND "
                "loop_id=? AND fingerprint=?",
                (module_digest, loop_id, fingerprint),
            ).fetchone()
            if row is None:
                self._bump("misses")
                return None
            self._bump("hits")
            if self.mode != "ro":
                with self._conn:
                    self._conn.execute(
                        "UPDATE entries SET hits=hits+1, last_used_at=? WHERE "
                        "module_digest=? AND loop_id=? AND fingerprint=?",
                        (self._clock(), module_digest, loop_id, fingerprint),
                    )
        return json.loads(row[0])

    def has_stale_sibling(
        self, module_digest: str, loop_id: str, fingerprint: str
    ) -> bool:
        """Whether this miss is really an invalidation: the same loop is
        cached under a different (now unreachable) config fingerprint."""
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM entries WHERE module_digest=? AND loop_id=? "
                "AND fingerprint<>? LIMIT 1",
                (module_digest, loop_id, fingerprint),
            ).fetchone()
        if row is not None:
            self._bump("invalidations")
        return row is not None

    def store(
        self,
        module_digest: str,
        loop_id: str,
        fingerprint: str,
        payload: Dict[str, object],
        fingerprint_description: Optional[Dict[str, object]] = None,
    ) -> bool:
        """Memoize one loop verdict; returns False in read-only mode."""
        if self.mode == "ro":
            return False
        now = self._clock()
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT INTO entries (module_digest, loop_id, fingerprint, "
                "payload, created_at, last_used_at, hits) "
                "VALUES (?, ?, ?, ?, ?, ?, 0) "
                "ON CONFLICT(module_digest, loop_id, fingerprint) DO UPDATE "
                "SET payload=excluded.payload, created_at=excluded.created_at",
                (module_digest, loop_id, fingerprint, json.dumps(payload),
                 now, now),
            )
            if fingerprint_description is not None:
                self._conn.execute(
                    "INSERT OR IGNORE INTO fingerprints "
                    "(fingerprint, description) VALUES (?, ?)",
                    (fingerprint, json.dumps(fingerprint_description,
                                             sort_keys=True)),
                )
        self._bump("stores")
        return True

    def lookup_profile(
        self, module_digest: str, key: str
    ) -> Optional[Dict[str, object]]:
        """The memoized profile-summary payload of one workload, or None.

        Modes as :meth:`lookup`: a hit bumps the row's usage accounting
        except in ``ro``; ``refresh`` always misses.
        """
        if self.mode == "refresh":
            return None
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM profiles WHERE module_digest=? AND "
                "profile_key=?",
                (module_digest, key),
            ).fetchone()
            if row is None:
                return None
            if self.mode != "ro":
                with self._conn:
                    self._conn.execute(
                        "UPDATE profiles SET hits=hits+1, last_used_at=? "
                        "WHERE module_digest=? AND profile_key=?",
                        (self._clock(), module_digest, key),
                    )
        return json.loads(row[0])

    def store_profile(
        self,
        module_digest: str,
        key: str,
        payload: Dict[str, object],
        max_steps: Optional[int] = None,
    ) -> bool:
        """Memoize one workload's profile summary, recorded with the step
        budget ``key`` was derived from; returns False in ``ro`` mode."""
        if self.mode == "ro":
            return False
        now = self._clock()
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT INTO profiles (module_digest, profile_key, "
                "max_steps, payload, created_at, last_used_at, hits) "
                "VALUES (?, ?, ?, ?, ?, ?, 0) "
                "ON CONFLICT(module_digest, profile_key) DO UPDATE "
                "SET payload=excluded.payload, created_at=excluded.created_at",
                (module_digest, key, max_steps, json.dumps(payload), now, now),
            )
        return True

    def register_module(
        self,
        module_digest: str,
        source_text: Optional[str] = None,
        source_path: Optional[str] = None,
        entry: str = "main",
        args: Sequence[object] = (),
    ) -> None:
        """Record source provenance for a module digest (enables verify)."""
        if self.mode == "ro":
            return
        try:
            args_json: Optional[str] = json.dumps(list(args))
        except TypeError:
            args_json = None  # non-JSON workload args: not verifiable
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT INTO modules (module_digest, source_path, "
                "source_text, entry, args_json) VALUES (?, ?, ?, ?, ?) "
                "ON CONFLICT(module_digest) DO UPDATE SET "
                "source_path=COALESCE(excluded.source_path, source_path), "
                "source_text=COALESCE(excluded.source_text, source_text)",
                (module_digest, source_path, source_text, entry, args_json),
            )

    # -- maintenance -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return self._stats_locked()

    def _stats_locked(self) -> Dict[str, object]:
        count_entries, total_hits = self._conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(hits), 0) FROM entries"
        ).fetchone()
        (count_modules,) = self._conn.execute(
            "SELECT COUNT(*) FROM modules"
        ).fetchone()
        (count_verifiable,) = self._conn.execute(
            "SELECT COUNT(*) FROM modules WHERE source_text IS NOT NULL"
        ).fetchone()
        (count_fingerprints,) = self._conn.execute(
            "SELECT COUNT(*) FROM fingerprints"
        ).fetchone()
        (count_profiles,) = self._conn.execute(
            "SELECT COUNT(*) FROM profiles"
        ).fetchone()
        meta = dict(self._conn.execute("SELECT key, value FROM meta"))
        oldest, newest = self._conn.execute(
            "SELECT MIN(created_at), MAX(created_at) FROM entries"
        ).fetchone()
        try:
            size_bytes = os.path.getsize(self.path)
        except OSError:  # pragma: no cover - racing deletion
            size_bytes = 0
        out = {
            "path": self.path,
            "mode": self.mode,
            "entries": count_entries,
            "modules": count_modules,
            "verifiable_modules": count_verifiable,
            "fingerprints": count_fingerprints,
            "profiles": count_profiles,
            "total_hits": int(total_hits),
            "semantics_version": int(meta.get("semantics_version",
                                              SEMANTICS_VERSION)),
            "semantics_purges": int(meta.get("semantics_purges", 0)),
            "oldest_entry": oldest,
            "newest_entry": newest,
            "size_bytes": size_bytes,
        }
        # Access traffic: every run that touched the store flushes its
        # counters into meta on close; this handle's unflushed counts
        # are added so stats stay current mid-session.
        for name in _LIFETIME_COUNTERS:
            out[f"lifetime_{name}"] = (
                int(meta.get(f"lifetime_{name}", 0))
                + self._session_counts[name]
            )
        lookups = out["lifetime_lookups"]
        out["lifetime_hit_rate"] = (
            out["lifetime_hits"] / lookups if lookups else None
        )
        return out

    def clear(self) -> int:
        """Drop every cached verdict and profile summary; returns the
        number of verdicts removed."""
        with self._lock:
            with self._conn:
                (count,) = self._conn.execute(
                    "SELECT COUNT(*) FROM entries"
                ).fetchone()
                self._conn.execute("DELETE FROM entries")
                self._conn.execute("DELETE FROM fingerprints")
                self._conn.execute("DELETE FROM modules")
                self._conn.execute("DELETE FROM profiles")
            self._conn.execute("VACUUM")
        return count

    def gc(
        self,
        max_age_days: Optional[float] = None,
        max_entries: Optional[int] = None,
    ) -> Dict[str, int]:
        """Expire old entries and cap the store size (LRU beyond the cap).

        A profile row expires by the same age rule only: a workload whose
        loops all stay out of the loop table (every one decided
        statically, say) keeps its profile.  ``max_entries`` caps loop
        entries alone.  A module row lives while an entry or a profile
        row references it (``cache verify`` re-profiles from it)."""
        removed_age = removed_lru = removed_profiles = 0
        with self._lock, self._conn:
            if max_age_days is not None:
                cutoff = self._clock() - max_age_days * 86400.0
                removed_age = self._conn.execute(
                    "DELETE FROM entries WHERE last_used_at < ?", (cutoff,)
                ).rowcount
                removed_profiles = self._conn.execute(
                    "DELETE FROM profiles WHERE last_used_at < ?", (cutoff,)
                ).rowcount
            if max_entries is not None:
                (count,) = self._conn.execute(
                    "SELECT COUNT(*) FROM entries"
                ).fetchone()
                overflow = count - max_entries
                if overflow > 0:
                    removed_lru = self._conn.execute(
                        "DELETE FROM entries WHERE rowid IN ("
                        "SELECT rowid FROM entries ORDER BY last_used_at "
                        "ASC, rowid ASC LIMIT ?)",
                        (overflow,),
                    ).rowcount
            # Drop provenance rows no entry or profile references any more.
            self._conn.execute(
                "DELETE FROM modules WHERE module_digest NOT IN "
                "(SELECT module_digest FROM entries "
                "UNION SELECT module_digest FROM profiles)"
            )
            self._conn.execute(
                "DELETE FROM fingerprints WHERE fingerprint NOT IN "
                "(SELECT DISTINCT fingerprint FROM entries)"
            )
            (remaining,) = self._conn.execute(
                "SELECT COUNT(*) FROM entries"
            ).fetchone()
        ctx = obs.current()
        if ctx.enabled:
            ctx.count("cache.gc.removed_age", removed_age)
            ctx.count("cache.gc.removed_lru", removed_lru)
            ctx.count("cache.gc.removed_profiles", removed_profiles)
            ctx.gauge("cache.gc.remaining", remaining)
        return {
            "removed_age": removed_age,
            "removed_lru": removed_lru,
            "removed_profiles": removed_profiles,
            "remaining": remaining,
        }

    # -- verification ------------------------------------------------------

    def verify(
        self, sample: int = 10, seed: int = 0
    ) -> Dict[str, object]:
        """Re-execute a sample of cached loops and cross-check payloads.

        Only loops whose module has registered source text are eligible.
        Each sampled loop is recompiled and re-analyzed under its exact
        recorded configuration (restricted to that loop); the fresh
        verdict, invocation/trip counts, tested schedules, snapshot
        content digests and golden snapshot tally must match the cached
        payload field-for-field.
        An entry whose recorded configuration does not rebuild to its
        fingerprint (e.g. a spec registry other than the built-in one)
        is reported unverifiable, never re-analyzed under another one.

        Up to ``sample`` profile rows are re-profiled too; their counts
        are reported apart (``profiles``) and a mismatch names the row
        by its ``profile`` key instead of a ``loop``.
        """
        from repro.core.config import AnalysisConfig  # local: avoid cycle
        from repro.core.dca import DcaAnalyzer
        from repro.driver import compile_program

        with self._lock:
            rows = self._conn.execute(
                "SELECT e.module_digest, e.loop_id, e.fingerprint, e.payload, "
                "m.source_text, m.entry, m.args_json, f.description "
                "FROM entries e "
                "JOIN modules m ON m.module_digest = e.module_digest "
                "JOIN fingerprints f ON f.fingerprint = e.fingerprint "
                "WHERE m.source_text IS NOT NULL AND m.args_json IS NOT NULL "
                "ORDER BY e.module_digest, e.loop_id, e.fingerprint"
            ).fetchall()
        rng = random.Random(seed)
        if len(rows) > sample:
            rows = rng.sample(rows, sample)
        checked = ok = 0
        mismatches: List[Dict[str, object]] = []
        unverifiable: List[Dict[str, object]] = []
        compare_fields = (
            "verdict", "reason", "invocations", "max_trip",
            "schedules_tested", "failed_schedule", "schedule_digests",
        )
        for (digest, loop_id, fingerprint, payload_json, source, entry,
             args_json, desc_json) in rows:
            payload = json.loads(payload_json)
            checked += 1
            try:
                # The exact recorded config: specs and tiering come from
                # the description, never from the environment.
                config = AnalysisConfig.from_description(
                    json.loads(desc_json),
                    entry=entry,
                    args=tuple(json.loads(args_json)),
                )
                if config.fingerprint() != fingerprint:
                    unverifiable.append(
                        {"module": digest, "loop": loop_id,
                         "error": "recorded config cannot be rebuilt"}
                    )
                    continue
                fresh = DcaAnalyzer(
                    compile_program(source),
                    config.replace(candidate_labels=(loop_id,)),
                ).analyze().results.get(loop_id)
            except Exception as exc:
                unverifiable.append(
                    {"module": digest, "loop": loop_id, "error": repr(exc)}
                )
                continue
            cached = payload.get("result", {})
            diffs = {}
            if fresh is None:
                diffs["loop"] = {"expected": loop_id, "actual": None}
            else:
                fresh_dict = fresh.to_dict()
                for name in compare_fields:
                    if fresh_dict.get(name) != cached.get(name):
                        diffs[name] = {
                            "expected": cached.get(name),
                            "actual": fresh_dict.get(name),
                        }
                if fresh.golden_tally != payload.get("golden"):
                    diffs["golden"] = {
                        "expected": payload.get("golden"),
                        "actual": fresh.golden_tally,
                    }
            if diffs:
                mismatches.append(
                    {"module": digest, "loop": loop_id,
                     "fingerprint": fingerprint, "diffs": diffs}
                )
            else:
                ok += 1
        profiles = self._verify_profiles(
            rng, sample, mismatches, unverifiable
        )
        return {
            "checked": checked,
            "ok": ok,
            "profiles": profiles,
            "mismatches": mismatches,
            "unverifiable": unverifiable,
        }

    def _verify_profiles(
        self,
        rng: random.Random,
        sample: int,
        mismatches: List[Dict[str, object]],
        unverifiable: List[Dict[str, object]],
    ) -> Dict[str, int]:
        """Re-profile a sample of profile rows with registered source;
        appends to ``mismatches``/``unverifiable``, returns the counts."""
        from repro.analysis.dynamic_deps import (  # local: avoid cycle
            ProfileSummary,
            profile_program,
        )
        from repro.driver import compile_program

        with self._lock:
            rows = self._conn.execute(
                "SELECT p.module_digest, p.profile_key, p.max_steps, "
                "p.payload, m.source_text, m.entry, m.args_json "
                "FROM profiles p "
                "JOIN modules m ON m.module_digest = p.module_digest "
                "WHERE m.source_text IS NOT NULL AND m.args_json IS NOT NULL "
                "ORDER BY p.module_digest, p.profile_key"
            ).fetchall()
        if len(rows) > sample:
            rows = rng.sample(rows, sample)
        checked = ok = 0
        for digest, key, max_steps, payload_json, source, entry, args_json \
                in rows:
            checked += 1
            try:
                if profile_key(max_steps) != key:
                    raise ValueError("recorded profile key cannot be rebuilt")
                cached = ProfileSummary.from_payload(json.loads(payload_json))
                fresh = profile_program(
                    compile_program(source),
                    entry,
                    json.loads(args_json),
                    max_steps=max_steps,
                )
            except Exception as exc:
                unverifiable.append(
                    {"module": digest, "profile": key, "error": repr(exc)}
                )
                continue
            diffs: Dict[str, object] = {}
            for name in ("steps", "max_trips"):
                if getattr(fresh, name) != getattr(cached, name):
                    diffs[name] = {
                        "expected": getattr(cached, name),
                        "actual": getattr(fresh, name),
                    }
            changed = sorted(
                label for label in set(fresh.loops) | set(cached.loops)
                if fresh.loop(label) != cached.loop(label)
            )
            if changed:
                diffs["loops"] = {"changed": changed}
            if diffs:
                mismatches.append(
                    {"module": digest, "profile": key, "diffs": diffs}
                )
            else:
                ok += 1
        return {"checked": checked, "ok": ok}
