"""Unit tests for the span tracer (repro.obs.tracer)."""

import json
import threading

import pytest

import repro.obs as obs
from repro.obs.tracer import Tracer


class FakeClock:
    """Deterministic monotonic clock: advances only when told."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


def test_span_records_duration(clock):
    tracer = Tracer(clock=clock)
    with tracer.span("work"):
        clock.tick(0.5)
    (rec,) = tracer.spans
    assert rec.name == "work"
    assert rec.dur_us == pytest.approx(500_000)
    assert rec.start_us == pytest.approx(0.0)
    assert rec.depth == 0


def test_span_nesting_parent_links_and_paths(clock):
    tracer = Tracer(clock=clock)
    with tracer.span("outer"):
        clock.tick(0.1)
        with tracer.span("inner", loop="main.L0"):
            clock.tick(0.2)
        clock.tick(0.1)
    inner, outer = tracer.spans  # completion order: children first
    assert inner.name == "inner"
    assert inner.parent == outer.sid
    assert inner.depth == 1
    assert inner.path == ("outer", "inner")
    assert outer.parent is None
    assert outer.path == ("outer",)
    # Time containment: child within parent.
    assert inner.start_us >= outer.start_us
    assert inner.end_us <= outer.end_us
    assert outer.dur_us == pytest.approx(400_000)
    assert inner.dur_us == pytest.approx(200_000)


def test_span_args_and_set(clock):
    tracer = Tracer(clock=clock)
    with tracer.span("s", a=1) as handle:
        handle.set(b=2)
    (rec,) = tracer.spans
    assert rec.args == {"a": 1, "b": 2}


def test_span_completes_on_exception(clock):
    tracer = Tracer(clock=clock)
    with pytest.raises(RuntimeError):
        with tracer.span("fails"):
            clock.tick(0.25)
            raise RuntimeError("boom")
    (rec,) = tracer.spans
    assert rec.dur_us == pytest.approx(250_000)
    assert not tracer._stack  # stack unwound


def test_sibling_spans_share_parent(clock):
    tracer = Tracer(clock=clock)
    with tracer.span("root"):
        for name in ("a", "b"):
            with tracer.span(name):
                clock.tick(0.1)
    a, b, root = tracer.spans
    assert a.parent == root.sid and b.parent == root.sid
    assert a.end_us <= b.start_us  # siblings do not overlap


def test_chrome_trace_export_structure(clock):
    tracer = Tracer(clock=clock)
    with tracer.span("outer", loop="L0"):
        clock.tick(0.001)
        with tracer.span("inner"):
            clock.tick(0.002)
    trace = tracer.to_chrome_trace()
    assert set(trace) == {"traceEvents", "displayTimeUnit"}
    events = trace["traceEvents"]
    assert len(events) == 2
    for event in events:
        assert event["ph"] == "X"
        assert isinstance(event["ts"], (int, float))
        assert isinstance(event["dur"], (int, float))
        assert event["name"]
        assert "pid" in event and "tid" in event
    # Round-trips through JSON (chrome://tracing loads files, not objects).
    json.loads(json.dumps(trace))
    # Events sorted by start time: outer first.
    assert events[0]["name"] == "outer"
    inner, outer = events[1], events[0]
    assert inner["ts"] >= outer["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]


def test_aggregate_and_total_ms(clock):
    tracer = Tracer(clock=clock)
    for _ in range(3):
        with tracer.span("step"):
            clock.tick(0.01)
    agg = tracer.aggregate()
    assert agg["step"]["count"] == 3
    assert agg["step"]["total_ms"] == pytest.approx(30.0)
    assert tracer.total_ms("step") == pytest.approx(30.0)
    assert tracer.total_ms("absent") == 0.0


def test_flame_summary_renders_nested_tree(clock):
    tracer = Tracer(clock=clock)
    with tracer.span("root"):
        with tracer.span("child"):
            clock.tick(0.5)
        clock.tick(0.5)
    text = tracer.flame_summary()
    lines = text.splitlines()
    assert lines[0].startswith("root")
    assert lines[1].startswith("  child")  # indented under parent
    assert "ms" in lines[0]
    assert Tracer(clock=FakeClock()).flame_summary() == "(no spans recorded)"


def test_reset_clears_spans(clock):
    tracer = Tracer(clock=clock)
    with tracer.span("s"):
        clock.tick(0.1)
    tracer.reset()
    assert tracer.spans == []
    assert tracer.to_chrome_trace()["traceEvents"] == []


def test_disabled_context_times_without_recording():
    """A disabled context records no span, yet every span it hands out
    reports its own duration, also with two threads timing at once (the
    serve daemon analyzes on several threads against one disabled
    context)."""
    local = threading.local()
    local.now = 0.0
    ctx = obs.ObsContext(enabled=False, clock=lambda: local.now)
    both_open = threading.Barrier(2, timeout=30)
    durations = {}

    def timed(name, start, end):
        local.now = start
        with ctx.span(name, arg=1) as span:
            assert span.set(anything=1) is span
            both_open.wait()
            local.now = end
        durations[name] = span.dur_ms

    threads = [
        threading.Thread(target=timed, args=("a", 0.0, 1.0)),
        threading.Thread(target=timed, args=("b", 10.0, 13.0)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert durations == {"a": 1000.0, "b": 3000.0}
    assert ctx.tracer.spans == []


def test_enabled_contextmanager_restores_previous():
    before = obs.current()
    assert not before.enabled
    with obs.enabled(clock=FakeClock()) as ctx:
        assert obs.current() is ctx
        assert ctx.enabled
        with ctx.span("s"):
            pass
        assert len(ctx.tracer.spans) == 1
    assert obs.current() is before


def test_enable_disable_install_fresh_contexts():
    first = obs.enable()
    try:
        with first.span("s"):
            pass
        second = obs.enable()
        assert second is not first
        assert second.tracer.spans == []
    finally:
        obs.disable()
    assert not obs.current().enabled
