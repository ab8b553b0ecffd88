"""``repro.obs`` — pipeline-wide tracing, metrics, and event logging.

The observability subsystem has three pillars, all dependency-free
(stdlib only, CI-enforced by ``tools/check_obs_stdlib.py``):

* :mod:`repro.obs.tracer` — nested wall-time spans with Chrome
  trace-event export and a text flame summary;
* :mod:`repro.obs.metrics` — a process-local registry of counters,
  gauges and histograms;
* :mod:`repro.obs.events` — a structured JSONL event log whose severity
  scale is shared with ``repro.analysis.diagnostics``.

One :class:`ObsContext` bundles all three behind a single ``enabled``
flag.  The module keeps a process-local current context, **disabled by
default**: every metric and event site guards on ``ctx.enabled``, so a
disabled context costs one attribute check — verified by
``benchmarks/test_obs_overhead.py``.

The context's clock is the pipeline's one wall clock.  Every recorded
duration (stage times, schedule replays, batch programs, baseline
passes) is the duration of the span around the work: an enabled context
records the span, a disabled one hands out a
:class:`~repro.obs.tracer.TimedSpan` that only reads the clock.  Injecting
a clock (``enabled(clock=...)`` / ``disabled(clock=...)``) therefore
makes every duration deterministic, and also zeroes CPU times and the
clock of schedule workers (:attr:`ObsContext.measures_time`).

Typical use::

    import repro.obs as obs

    ctx = obs.enable()
    report = DcaAnalyzer(module, config).analyze()
    chrome_json = ctx.tracer.to_chrome_trace()
    metrics = ctx.metrics.to_dict()
    obs.disable()

or, scoped (restores the previous context on exit)::

    with obs.enabled() as ctx:
        ...

    with obs.disabled(clock=lambda: 0.0):
        report = DcaAnalyzer(module, config).analyze()   # every time is 0.0
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Optional, Tuple

from repro.obs.events import SEVERITIES, Event, EventLog
from repro.obs.export import (
    EXPORT_FORMATS,
    parse_openmetrics,
    render_export,
    render_openmetrics,
)
from repro.obs.ledger import LEDGER_DB_NAME, RunLedger
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import SpanRecord, TimedSpan, Tracer

__all__ = [
    "Counter",
    "EXPORT_FORMATS",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsContext",
    "RunLedger",
    "SEVERITIES",
    "SpanRecord",
    "Tracer",
    "current",
    "disable",
    "disabled",
    "enable",
    "enabled",
    "is_enabled",
    "parse_openmetrics",
    "record_in_worker",
    "render_export",
    "render_openmetrics",
    "reset",
    "LEDGER_DB_NAME",
]


class ObsContext:
    """Tracer + metrics + events behind one ``enabled`` flag."""

    __slots__ = ("enabled", "clock", "tracer", "metrics", "events")

    def __init__(
        self,
        enabled: bool = False,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.enabled = enabled
        #: Monotonic seconds; every span of this context reads it.
        self.clock = clock or time.perf_counter
        self.tracer = Tracer(clock=self.clock)
        self.metrics = MetricsRegistry()
        self.events = EventLog(clock=self.clock)

    @property
    def measures_time(self) -> bool:
        """False under an injected clock: a deterministic run, whose CPU
        times read zero and whose schedule workers get a zero clock."""
        return self.clock is time.perf_counter

    # -- guarded fast-path API (no-ops when disabled) --------------------------

    def span(self, name: str, **args):
        """A span context manager that reports its duration on exit;
        recorded in the tracer only when enabled."""
        if not self.enabled:
            return TimedSpan(self.clock)
        return self.tracer.span(name, **args)

    def count(self, name: str, n=1) -> None:
        if self.enabled:
            self.metrics.counter(name).inc(n)

    def observe(self, name: str, value) -> None:
        if self.enabled:
            self.metrics.histogram(name).observe(value)

    def gauge(self, name: str, value) -> None:
        if self.enabled:
            self.metrics.gauge(name).set(value)

    def event(
        self, severity: str, kind: str, message: str, provenance: str = "", **fields
    ) -> None:
        if self.enabled:
            self.events.emit(severity, kind, message, provenance=provenance, **fields)

    def payload(self) -> Dict[str, object]:
        """This context's recordings as a picklable worker payload
        (``pid``/``spans``/``metrics``/``events``), the input of
        :meth:`absorb` on the coordinator."""
        return {
            "pid": os.getpid(),
            "spans": [
                {
                    "name": rec.name,
                    "args": dict(rec.args),
                    "path": list(rec.path),
                    "start_us": rec.start_us,
                    "dur_us": rec.dur_us,
                    "depth": rec.depth,
                    "parent": rec.parent,
                    "sid": rec.sid,
                }
                for rec in self.tracer.spans
            ],
            "metrics": self.metrics.to_dict(),
            "events": [e.to_dict() for e in self.events.events],
        }

    def absorb(self, payload: Dict[str, object], lane: int = 1) -> None:
        """Merge a worker process's observability payload into this
        context: spans onto ``lane`` of the tracer, metrics into the
        registry, events re-sequenced into the log.  No-op when disabled.
        """
        if not self.enabled or not payload:
            return
        self.tracer.absorb(payload.get("spans") or [], lane=lane)
        self.metrics.merge(payload.get("metrics") or {})
        self.events.absorb(payload.get("events") or [])

    # -- lifecycle -------------------------------------------------------------

    def reset(self) -> None:
        """Clear all recorded data (isolation between runs)."""
        self.tracer.reset()
        self.metrics.reset()
        self.events.reset()

    def to_dict(self) -> Dict[str, object]:
        return {
            "enabled": self.enabled,
            "metrics": self.metrics.to_dict(),
            "spans": len(self.tracer.spans),
            "events": [e.to_dict() for e in self.events.events],
        }


#: The process-local current context; disabled by default.
_current = ObsContext(enabled=False)


def current() -> ObsContext:
    """The active observability context (disabled unless enabled)."""
    return _current


def is_enabled() -> bool:
    return _current.enabled


def enable(clock: Optional[Callable[[], float]] = None) -> ObsContext:
    """Install (and return) a fresh enabled context."""
    global _current
    _current = ObsContext(enabled=True, clock=clock)
    return _current


def disable() -> ObsContext:
    """Install (and return) a fresh disabled context."""
    global _current
    _current = ObsContext(enabled=False)
    return _current


def record_in_worker(
    fn: Callable[[], object],
    ship: bool,
    clock: Optional[Callable[[], float]] = None,
) -> Tuple[object, Optional[Dict[str, object]]]:
    """Run ``fn()`` in a pool worker; returns ``(result, payload)``.

    ``fn`` always runs in a fresh context on ``clock``, never in the one
    a forked worker inherits (it would silently accumulate, and its
    clock is the coordinator's).  With ``ship`` the context is enabled
    and its :meth:`ObsContext.payload` is what the coordinator absorbs;
    else the payload is None."""
    global _current
    ctx = _current = ObsContext(enabled=ship, clock=clock)
    try:
        return fn(), ctx.payload() if ship else None
    finally:
        disable()


def reset() -> None:
    """Clear the current context's recorded data."""
    _current.reset()


@contextmanager
def _installed(ctx: ObsContext):
    global _current
    previous, _current = _current, ctx
    try:
        yield ctx
    finally:
        _current = previous


def enabled(clock: Optional[Callable[[], float]] = None):
    """Temporarily install a fresh enabled context; restores the previous
    context on exit (for tests and scoped profiling)."""
    return _installed(ObsContext(enabled=True, clock=clock))


def disabled(clock: Optional[Callable[[], float]] = None):
    """Temporarily install a fresh disabled context on ``clock``; restores
    the previous context on exit (deterministic timings in tests)."""
    return _installed(ObsContext(enabled=False, clock=clock))
