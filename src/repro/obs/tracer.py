"""Nested-span tracer with Chrome trace-event export.

A :class:`Tracer` records well-nested wall-time spans::

    with tracer.span("dynamic.schedule", loop="main.L0", schedule="reverse"):
        ...

Spans nest lexically (the ``with`` statement guarantees LIFO open/close),
so the completed records form a forest that exports directly as Chrome
``chrome://tracing`` / Perfetto *complete* events (``ph: "X"``) and as an
indented text flame summary.

Time comes from an injectable monotonic clock (seconds as a float,
default :func:`time.perf_counter`), which keeps every test deterministic:
inject a fake clock and spans get exact, reproducible durations.  Every
span reports its duration on exit (``dur_us``/``dur_ms``), and a
:class:`TimedSpan` times without recording anything, which is what a
disabled observability context hands out: the span around a piece of
work is the one measure of its wall time, traced or not.

Stdlib-only by design — enforced by ``tools/check_obs_stdlib.py`` in CI.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["SpanRecord", "TimedSpan", "Tracer"]


class SpanRecord:
    """One completed span."""

    __slots__ = (
        "sid",
        "parent",
        "name",
        "args",
        "path",
        "start_us",
        "dur_us",
        "depth",
        "lane",
    )

    def __init__(
        self,
        sid: int,
        parent: Optional[int],
        name: str,
        args: Dict[str, object],
        path: Tuple[str, ...],
        start_us: float,
        dur_us: float,
        depth: int,
        lane: int = 0,
    ):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.args = args
        #: Names of the enclosing spans plus this one, root first.
        self.path = path
        self.start_us = start_us
        self.dur_us = dur_us
        self.depth = depth
        #: Thread lane for export: 0 is the coordinator; spans absorbed
        #: from worker processes keep their worker's lane number, so a
        #: Chrome trace renders each worker as its own row.
        self.lane = lane

    @property
    def end_us(self) -> float:
        return self.start_us + self.dur_us

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<span {self.name!r} {self.dur_us:.1f}us depth={self.depth}>"


class TimedSpan:
    """A span that reads ``clock`` on entry and exit and records nothing.

    One object per span, so threads timing concurrently share no state.
    After exit, ``dur_us`` holds the duration in microseconds.
    """

    __slots__ = ("_clock", "_start", "dur_us")

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock

    @property
    def dur_ms(self) -> float:
        return self.dur_us / 1000.0

    def set(self, **args) -> "TimedSpan":
        return self

    def __enter__(self) -> "TimedSpan":
        self._start = self._clock()
        return self

    def __exit__(self, *exc) -> bool:
        self.dur_us = (self._clock() - self._start) * 1e6
        return False


class _SpanHandle(TimedSpan):
    """Context manager for one active span, recorded on exit."""

    __slots__ = ("_tracer", "name", "args", "_sid", "_parent", "_path")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, object]):
        super().__init__(tracer._clock)
        self._tracer = tracer
        self.name = name
        self.args = args

    def set(self, **args) -> "_SpanHandle":
        """Attach extra attributes while the span is open."""
        self.args.update(args)
        return self

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        self._sid = tracer._next_id
        tracer._next_id += 1
        stack = tracer._stack
        self._parent = stack[-1][0] if stack else None
        self._path = (stack[-1][1] if stack else ()) + (self.name,)
        stack.append((self._sid, self._path))
        return super().__enter__()

    def __exit__(self, *exc) -> bool:
        super().__exit__()
        tracer = self._tracer
        tracer._stack.pop()
        tracer.spans.append(
            SpanRecord(
                sid=self._sid,
                parent=self._parent,
                name=self.name,
                args=self.args,
                path=self._path,
                start_us=(self._start - tracer._epoch) * 1e6,
                dur_us=self.dur_us,
                depth=len(self._path) - 1,
            )
        )
        return False


class Tracer:
    """Records nested spans against a monotonic clock."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or time.perf_counter
        self._epoch = self._clock()
        #: Completed spans in completion order (children before parents).
        self.spans: List[SpanRecord] = []
        self._stack: List[Tuple[int, Tuple[str, ...]]] = []
        self._next_id = 0

    def span(self, name: str, **args) -> _SpanHandle:
        """A context manager recording one nested span."""
        return _SpanHandle(self, name, args)

    def absorb(self, span_dicts: List[Dict[str, object]], lane: int = 1) -> None:
        """Merge spans recorded by another tracer (a worker process).

        ``span_dicts`` is the worker's serialized span list (one dict per
        :class:`SpanRecord`).  Span ids are remapped past this tracer's
        counter (parent links preserved within the batch), timestamps are
        re-based onto this tracer's current offset so the batch lands
        "now" on its own ``lane``, and relative timing within the batch
        survives intact.
        """
        if not span_dicts:
            return
        base = (self._clock() - self._epoch) * 1e6
        batch_start = min(float(d["start_us"]) for d in span_dicts)
        sid_map: Dict[int, int] = {}
        for d in span_dicts:
            sid_map[int(d["sid"])] = self._next_id
            self._next_id += 1
        for d in span_dicts:
            parent = d.get("parent")
            self.spans.append(
                SpanRecord(
                    sid=sid_map[int(d["sid"])],
                    parent=sid_map.get(parent) if parent is not None else None,
                    name=str(d["name"]),
                    args=dict(d.get("args") or {}),
                    path=tuple(d.get("path") or (str(d["name"]),)),
                    start_us=base + float(d["start_us"]) - batch_start,
                    dur_us=float(d["dur_us"]),
                    depth=int(d.get("depth", 0)),
                    lane=lane,
                )
            )

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._epoch = self._clock()

    # -- aggregation -----------------------------------------------------------

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per-name totals: ``{name: {"count": n, "total_ms": ms}}``."""
        out: Dict[str, Dict[str, float]] = {}
        for rec in self.spans:
            agg = out.setdefault(rec.name, {"count": 0, "total_ms": 0.0})
            agg["count"] += 1
            agg["total_ms"] += rec.dur_us / 1000.0
        return out

    def total_ms(self, name: str) -> float:
        return sum(r.dur_us for r in self.spans if r.name == name) / 1000.0

    # -- export ----------------------------------------------------------------

    def to_chrome_trace(self, pid: int = 1, tid: int = 1) -> Dict[str, object]:
        """The trace as Chrome trace-event JSON (``chrome://tracing``).

        Every span becomes a *complete* event (``ph: "X"``) with ``ts`` and
        ``dur`` in microseconds; nesting is conveyed by time containment on
        the single thread lane, which both Chrome and Perfetto render as a
        flame graph.
        """
        events = []
        for rec in sorted(self.spans, key=lambda r: (r.start_us, -r.dur_us)):
            events.append(
                {
                    "name": rec.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": rec.start_us,
                    "dur": rec.dur_us,
                    "pid": pid,
                    # Absorbed worker spans render on their own rows.
                    "tid": tid + rec.lane,
                    "args": dict(rec.args),
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def flame_summary(self) -> str:
        """Indented text flame view aggregated by span path."""
        if not self.spans:
            return "(no spans recorded)"
        totals: Dict[Tuple[str, ...], List[float]] = {}
        for rec in self.spans:
            agg = totals.setdefault(rec.path, [0.0, 0])
            agg[0] += rec.dur_us
            agg[1] += 1
        root_total = sum(us for path, (us, _) in totals.items() if len(path) == 1)
        lines = []
        for path in sorted(totals):
            us, count = totals[path]
            pct = (us / root_total * 100.0) if root_total else 0.0
            indent = "  " * (len(path) - 1)
            label = f"{indent}{path[-1]}"
            lines.append(
                f"{label:<40s} {us / 1000.0:10.3f} ms {int(count):7d}x {pct:6.1f}%"
            )
        return "\n".join(lines)
