"""Append-only sqlite run ledger with cross-run trend + regression checks.

Where spans/metrics/events describe *one* run, the ledger persists the
per-run headline numbers across runs — config fingerprint, verdict
counts, stage times, schedule executions saved, cache hit rate — so
``repro stats`` can render the perf trajectory (the paper's Fig. 5/6
style comparisons) and CI can fail on a regression without re-running
old analyses.

The store follows the analysis cache's sqlite conventions: WAL when the
filesystem allows it, a generous busy timeout, short transactions, a
``meta`` key/value table carrying the schema version.  Rows are only
ever appended; series identity is ``(kind, program, fingerprint)``, so
a config change starts a fresh series instead of polluting an old one.

Regression policy (:meth:`RunLedger.check_regressions`): within each
series, the latest run is compared against the rolling median of up to
``window`` prior runs — wall time must not rise more than
``threshold_pct`` percent, and schedule executions saved must not drop
more than ``threshold_pct`` percent (when the median was nonzero).

Stdlib-only by design — enforced by ``tools/check_obs_stdlib.py`` in CI.
"""

from __future__ import annotations

import json
import os
import sqlite3
import statistics
import time
from typing import Callable, Dict, List, Optional

__all__ = [
    "LEDGER_DB_NAME",
    "RunLedger",
]

LEDGER_DB_NAME = "run-ledger.sqlite"

#: v2: per-tier verdict counts (``tiers`` column) — pre-existing
#: databases are migrated in place via ``ALTER TABLE ADD COLUMN``.
_SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
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
    tiers TEXT NOT NULL DEFAULT '{}',
    stage_times TEXT NOT NULL DEFAULT '{}',
    extra TEXT
);
CREATE INDEX IF NOT EXISTS runs_series
    ON runs (kind, program, fingerprint, run_id);
"""

_ROW_FIELDS = (
    "run_id", "recorded_at", "kind", "program", "fingerprint", "wall_ms",
    "schedule_executions", "executions_saved", "cache_hits", "cache_misses",
    "verdicts", "tiers", "stage_times", "extra",
)


class RunLedger:
    """One open handle on a persistent run-ledger directory."""

    def __init__(
        self,
        directory: str,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.directory = str(directory)
        self._clock = clock or time.time
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, LEDGER_DB_NAME)
        self._conn = sqlite3.connect(self.path, timeout=30.0)
        self._conn.executescript(_SCHEMA)
        # v1 -> v2 in-place migration: the CREATE above is a no-op on an
        # existing database, so add any column it is missing.
        columns = {
            row[1]
            for row in self._conn.execute("PRAGMA table_info(runs)")
        }
        if "tiers" not in columns:
            with self._conn:
                self._conn.execute(
                    "ALTER TABLE runs "
                    "ADD COLUMN tiers TEXT NOT NULL DEFAULT '{}'"
                )
        try:  # WAL keeps concurrent recorders off each other's locks
            self._conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.DatabaseError:  # pragma: no cover - fs-dependent
            pass
        self._conn.execute("PRAGMA busy_timeout=30000")
        with self._conn:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                ("schema_version", str(_SCHEMA_VERSION)),
            )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- recording ---------------------------------------------------------

    def record(
        self,
        kind: str,
        program: str,
        fingerprint: str,
        wall_ms: float,
        schedule_executions: int = 0,
        executions_saved: int = 0,
        cache_hits: int = 0,
        cache_misses: int = 0,
        verdicts: Optional[Dict[str, int]] = None,
        tiers: Optional[Dict[str, int]] = None,
        stage_times: Optional[Dict[str, float]] = None,
        extra: Optional[Dict[str, object]] = None,
    ) -> int:
        """Append one run row; returns its ledger id."""
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO runs (recorded_at, kind, program, fingerprint, "
                "wall_ms, schedule_executions, executions_saved, cache_hits, "
                "cache_misses, verdicts, tiers, stage_times, extra) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    self._clock(),
                    kind,
                    program,
                    fingerprint,
                    float(wall_ms),
                    int(schedule_executions),
                    int(executions_saved),
                    int(cache_hits),
                    int(cache_misses),
                    json.dumps(verdicts or {}, sort_keys=True),
                    json.dumps(tiers or {}, sort_keys=True),
                    json.dumps(stage_times or {}, sort_keys=True),
                    json.dumps(extra, sort_keys=True)
                    if extra is not None
                    else None,
                ),
            )
        return int(cursor.lastrowid)

    # -- reading -----------------------------------------------------------

    @staticmethod
    def _row_to_dict(row) -> Dict[str, object]:
        out = dict(zip(_ROW_FIELDS, row))
        out["verdicts"] = json.loads(out["verdicts"] or "{}")
        out["tiers"] = json.loads(out["tiers"] or "{}")
        out["stage_times"] = json.loads(out["stage_times"] or "{}")
        out["extra"] = json.loads(out["extra"]) if out["extra"] else None
        attempts = out["cache_hits"] + out["cache_misses"]
        out["cache_hit_rate"] = (
            out["cache_hits"] / attempts if attempts else None
        )
        return out

    def runs(
        self,
        kind: Optional[str] = None,
        program: Optional[str] = None,
        fingerprint: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, object]]:
        """Recorded runs, oldest first, optionally filtered."""
        clauses, params = [], []
        for column, value in (
            ("kind", kind), ("program", program), ("fingerprint", fingerprint)
        ):
            if value is not None:
                clauses.append(f"{column}=?")
                params.append(value)
        sql = f"SELECT {', '.join(_ROW_FIELDS)} FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY run_id ASC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        return [
            self._row_to_dict(row)
            for row in self._conn.execute(sql, params).fetchall()
        ]

    def series(self) -> List[Dict[str, object]]:
        """Distinct ``(kind, program, fingerprint)`` series with run counts."""
        rows = self._conn.execute(
            "SELECT kind, program, fingerprint, COUNT(*), MIN(recorded_at), "
            "MAX(recorded_at) FROM runs GROUP BY kind, program, fingerprint "
            "ORDER BY kind, program, fingerprint"
        ).fetchall()
        return [
            {
                "kind": kind,
                "program": program,
                "fingerprint": fingerprint,
                "runs": count,
                "first_recorded_at": first,
                "last_recorded_at": last,
            }
            for kind, program, fingerprint, count, first, last in rows
        ]

    # -- trends and regressions -------------------------------------------

    def trends(self, window: int = 10) -> List[Dict[str, object]]:
        """Per-series trend summary: the latest run against the rolling
        median of up to ``window`` prior runs in the same series."""
        out: List[Dict[str, object]] = []
        for series in self.series():
            runs = self.runs(
                kind=series["kind"],
                program=series["program"],
                fingerprint=series["fingerprint"],
            )
            latest, prior = runs[-1], runs[:-1][-window:]
            entry: Dict[str, object] = {
                "kind": series["kind"],
                "program": series["program"],
                "fingerprint": series["fingerprint"],
                "runs": len(runs),
                "latest_run_id": latest["run_id"],
                "latest_wall_ms": latest["wall_ms"],
                "latest_executions_saved": latest["executions_saved"],
                "latest_cache_hit_rate": latest["cache_hit_rate"],
                "latest_tiers": latest["tiers"],
                "median_wall_ms": None,
                "median_executions_saved": None,
                "wall_ms_delta_pct": None,
                "executions_saved_delta_pct": None,
            }
            if prior:
                median_wall = statistics.median(r["wall_ms"] for r in prior)
                median_saved = statistics.median(
                    r["executions_saved"] for r in prior
                )
                entry["median_wall_ms"] = median_wall
                entry["median_executions_saved"] = median_saved
                if median_wall > 0:
                    entry["wall_ms_delta_pct"] = (
                        (latest["wall_ms"] - median_wall) / median_wall * 100.0
                    )
                if median_saved > 0:
                    entry["executions_saved_delta_pct"] = (
                        (latest["executions_saved"] - median_saved)
                        / median_saved
                        * 100.0
                    )
            out.append(entry)
        return out

    def check_regressions(
        self, threshold_pct: float = 20.0, window: int = 10
    ) -> List[Dict[str, object]]:
        """Series whose latest run regressed beyond the threshold.

        Flags a series when the latest run's wall time rose more than
        ``threshold_pct`` percent over the rolling median of prior runs,
        or when its schedule executions saved dropped more than
        ``threshold_pct`` percent below a nonzero prior median.  Series
        with no prior runs cannot regress.
        """
        regressions: List[Dict[str, object]] = []
        for trend in self.trends(window=window):
            reasons: List[str] = []
            wall_delta = trend["wall_ms_delta_pct"]
            saved_delta = trend["executions_saved_delta_pct"]
            if wall_delta is not None and wall_delta > threshold_pct:
                reasons.append(
                    f"wall time rose {wall_delta:.1f}% over the rolling "
                    f"median ({trend['latest_wall_ms']:.1f} ms vs "
                    f"{trend['median_wall_ms']:.1f} ms)"
                )
            if saved_delta is not None and saved_delta < -threshold_pct:
                reasons.append(
                    "schedule executions saved dropped "
                    f"{-saved_delta:.1f}% below the rolling median "
                    f"({trend['latest_executions_saved']} vs "
                    f"{trend['median_executions_saved']:.0f})"
                )
            if reasons:
                regressions.append({**trend, "reasons": reasons})
        return regressions
