"""``repro.cache`` — persistent, content-addressed analysis cache.

The dynamic stage of DCA is expensive by construction (one golden run
plus one run per permutation schedule per loop); this package memoizes
its per-loop verdicts, and each workload's profile summary, on disk so
repeated and corpus-scale analyses are incremental.  See
:mod:`repro.cache.keys` for the key design and :mod:`repro.cache.store`
for the sqlite3 store.

Typical use goes through :class:`repro.api.AnalysisSession` (pass
``cache_dir``) or the CLI (``--cache DIR`` / ``REPRO_CACHE_DIR``, and
the ``repro cache`` maintenance subcommand)::

    from repro.api import AnalysisConfig, AnalysisSession

    session = AnalysisSession(AnalysisConfig(cache_dir="~/.cache/repro"))
    report = session.analyze(source)          # cold: populates the cache
    report = session.analyze(source)          # warm: replays verdicts
"""

from __future__ import annotations

from typing import Optional

from repro.cache.keys import (
    SEMANTICS_VERSION,
    config_fingerprint,
    fingerprint_description,
    module_workload_digest,
    profile_key,
)
from repro.cache.store import (
    CACHE_DB_NAME,
    CACHE_MODES,
    AnalysisCache,
)

__all__ = [
    "AnalysisCache",
    "CACHE_DB_NAME",
    "CACHE_MODES",
    "SEMANTICS_VERSION",
    "config_fingerprint",
    "fingerprint_description",
    "module_workload_digest",
    "open_cache",
    "profile_key",
]


def open_cache(
    cache_dir: Optional[str] = None, mode: str = "rw"
) -> Optional[AnalysisCache]:
    """Open a resolved cache directory (see
    :meth:`repro.api.AnalysisConfig.resolved`), or None when caching is
    off."""
    if cache_dir is None or mode == "off":
        return None
    return AnalysisCache(cache_dir, mode=mode)
