"""``repro.settings`` — every environment-backed setting, in one table.

Each row of :data:`SETTINGS` names one ``REPRO_*`` variable, the parser
its text goes through, the default, and (for names) the allowed
choices.  :func:`resolve` applies the one precedence rule the whole
tree follows: an explicit value (CLI flag, API config field, function
argument) beats the environment, which beats the default.

One spelling rule covers every variable:

* a blank or whitespace-only value means unset;
* booleans accept ``1/true/yes/on`` and ``0/false/no/off``
  (case-insensitive);
* integers parse with ``int``;
* paths expand ``~``; an explicit blank path disables the setting;
* anything else raises a :class:`ValueError` naming the variable.

This is the only module under ``repro`` that reads ``os.environ``
(``tests/test_settings.py`` guards that); it imports nothing else from
the package.  DESIGN.md's settings table lists every row with its flag
and config field.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Tuple

__all__ = ["SETTINGS", "Setting", "resolve"]

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


def _bool(text: str) -> bool:
    word = text.lower()
    if word in _TRUE:
        return True
    if word in _FALSE:
        return False
    raise ValueError("one of 1/true/yes/on or 0/false/no/off")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError("an integer") from None


def _path(text: str) -> Optional[str]:
    text = text.strip()
    return os.path.expanduser(text) if text else None


@dataclass(frozen=True)
class Setting:
    """One environment-backed setting.

    ``default`` is a value, or a callable of the environment mapping for
    defaults derived from other rows.
    """

    env: str
    parse: Callable[[str], object]
    default: object = None
    choices: Optional[Tuple[str, ...]] = None


def _schedule_backend_default(environ: Mapping[str, str]) -> str:
    jobs = resolve("schedule_jobs", environ=environ)
    return "process" if jobs is not None and jobs > 1 else "serial"


def _codegen_cache_dir_default(environ: Mapping[str, str]) -> Optional[str]:
    base = resolve("cache_dir", environ=environ)
    return None if base is None else os.path.join(base, "codegen")


SETTINGS = {
    "cache_dir": Setting("REPRO_CACHE_DIR", _path),
    "codegen_cache_dir": Setting(
        "REPRO_CODEGEN_CACHE_DIR", _path, _codegen_cache_dir_default
    ),
    "ledger_dir": Setting("REPRO_LEDGER_DIR", _path),
    "exec_backend": Setting(
        "REPRO_EXEC_BACKEND", str, "codegen", ("interp", "codegen")
    ),
    "schedule_backend": Setting(
        "REPRO_SCHEDULE_BACKEND", str, _schedule_backend_default,
        ("serial", "process"),
    ),
    "schedule_jobs": Setting("REPRO_SCHEDULE_JOBS", _int),
    "specs": Setting("REPRO_SPECS", _bool, False),
    "tiering": Setting("REPRO_TIERING", _bool, False),
    "serve_host": Setting("REPRO_SERVE_HOST", str, "127.0.0.1"),
    "serve_port": Setting("REPRO_SERVE_PORT", _int, 8421),
    "serve_queue_depth": Setting("REPRO_SERVE_QUEUE_DEPTH", _int, 64),
    "serve_workers": Setting("REPRO_SERVE_WORKERS", _int, 4),
    "serve_priority": Setting("REPRO_SERVE_PRIORITY", _int, 10),
}


def resolve(
    name: str,
    explicit: object = None,
    environ: Optional[Mapping[str, str]] = None,
):
    """The effective value of setting ``name``: ``explicit`` unless it is
    None, else the row's environment variable (read from ``environ``,
    default ``os.environ``) unless it is blank, else the row's default.

    Explicit values are returned as given (paths after ``~`` expansion);
    their owners validate them.  Environment values are parsed and
    checked against the row's choices here.
    """
    row = SETTINGS[name]
    if explicit is not None:
        return _path(os.fspath(explicit)) if row.parse is _path else explicit
    environ = os.environ if environ is None else environ
    raw = environ.get(row.env, "").strip()
    if not raw:
        return row.default(environ) if callable(row.default) else row.default
    try:
        value = row.parse(raw)
        if row.choices is not None and value not in row.choices:
            raise ValueError(f"one of {', '.join(row.choices)}")
    except ValueError as exc:
        raise ValueError(f"{row.env} must be {exc}, got {raw!r}") from None
    return value
