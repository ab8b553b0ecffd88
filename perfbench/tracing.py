"""Per-layer spans recorded around the public seams of each DCA layer.

The traced run wraps the functions and methods in ``SEAMS`` from outside
``src/``: each call becomes one span with a name, start and end
(``perf_counter_ns``, CLOCK_MONOTONIC on Linux and therefore comparable
between the benchmark and the daemon it starts), the span open when it
started, and a per-analysis id shared by every span under one root.
Spans stay in memory until the run ends.

``repro.obs`` spans are deliberately not used: enabling the obs context
makes ``create_executor`` fall back to the interpreter, so a traced
codegen run would execute a different program than the untraced one.

Run as a script, this module hosts ``repro serve`` with tracing on and
writes its spans to a JSON file when the daemon exits::

    python3 perfbench/tracing.py --out spans.json -- serve --port 8421 ...
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

#: One recorded call: (sid, name, start_ns, end_ns, parent sid or 0,
#: analysis id, thread id, info).  ``info`` is per-seam data
#: (instructions retired, cache hit flag, ...) or None.
Span = Tuple[int, str, int, int, int, int, int, object]

#: Stage of ``DcaReport.stage_times_ms`` that each span directly under
#: the ``dca`` span belongs to (the consistency check sums these).
STAGE_OF_SPAN = {
    "selection": "selection",
    "profile": "profile",
    "static": "static",
    "instrument.observe": "golden",
    "codegen.compile": "golden",
    "golden": "golden",
    "engine": "dynamic",
    "cache.lookup": "dynamic",
    "cache.store": "dynamic",
    "instrument.test": "dynamic",
    "tiering": "tiering",
}


class Tracer:
    """In-memory span recorder; :meth:`install` patches the seams."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._analyses = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, info=None, when=None) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``when(args)`` runs before the call; returning False skips the
        span.  ``info(args, result)`` attaches per-call data on success.
        """
        spans = self.spans
        ids = self._ids
        analyses = self._analyses
        local = self._local
        clock = time.perf_counter_ns
        ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            if stack:
                parent, analysis = stack[-1]
            else:
                parent, analysis = 0, next(analyses)
            stack.append((sid, analysis))
            extra = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    extra = info(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (sid, name, start, end, parent, analysis, ident(), extra)
                )

        return traced

    # -- patching ----------------------------------------------------------

    def _replace(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` in every loaded
        ``repro.*`` module (``from x import f`` copies the binding)."""
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            namespace = mod.__dict__
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = replacement
                    self._undo.append(
                        functools.partial(namespace.__setitem__, key, original)
                    )

    def patch_function(self, module, attr, name, info=None, when=None) -> None:
        original = getattr(module, attr)
        self._replace(original, self.wrap(name, original, info, when))

    def patch_method(self, cls, attr, name, info=None, when=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, info, when))
        self._undo.append(functools.partial(setattr, cls, attr, original))

    def install(self) -> "Tracer":
        """Wrap every seam in ``SEAMS``; :meth:`uninstall` restores them."""
        for patch in SEAMS:
            patch(self)
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


# -- the seams ------------------------------------------------------------------


def _steps(args, result):
    return args[0].steps


def _is_profile_run(args) -> bool:
    from repro.analysis.dynamic_deps import DynamicDepProfiler

    return any(isinstance(o, DynamicDepProfiler) for o in args[0].observers)


def _patch_frontend(tracer: Tracer) -> None:
    import repro.driver

    tracer.patch_function(repro.driver, "compile_program", "frontend")


def _patch_dca(tracer: Tracer) -> None:
    from repro.analysis.commutativity import StaticCommutativityAnalysis
    from repro.core.dca import DcaAnalyzer
    from repro.interp.interpreter import Interpreter

    tracer.patch_method(DcaAnalyzer, "analyze", "dca")
    tracer.patch_method(DcaAnalyzer, "select_candidates", "selection")
    # Only the profiler-observed run is the profile stage; every other
    # interpreter run belongs to whatever span encloses it.
    tracer.patch_method(
        Interpreter, "run", "profile", info=_steps, when=_is_profile_run
    )
    tracer.patch_method(StaticCommutativityAnalysis, "analyze", "static")


def _patch_instrument(tracer: Tracer) -> None:
    import repro.core.instrument as instrument

    tracer.patch_function(instrument, "build_observe_module", "instrument.observe")
    tracer.patch_function(instrument, "build_test_module", "instrument.test")


class _TracedExecutor:
    """An executor whose ``run`` is traced; everything else delegates."""

    def __init__(self, executor, run: Callable) -> None:
        self._executor = executor
        self.run = run

    def __getattr__(self, attr):
        return getattr(self._executor, attr)


def _patch_executor(tracer: Tracer) -> None:
    """The executor ``create_executor`` returns runs the golden run: the
    analyzer calls it for nothing else (replays build their own)."""
    import repro.interp.compiler as compiler

    original = compiler.create_executor

    @functools.wraps(original)
    def create_executor(*args, **kwargs):
        executor = original(*args, **kwargs)
        run = tracer.wrap(
            "golden", executor.run, info=lambda a, r: executor.steps
        )
        return _TracedExecutor(executor, run)

    tracer._replace(original, create_executor)


def _engine_info(args, outcomes):
    from repro.core.schedule_engine import CANCELLED

    planned = sum(len(plan.tasks) for plan in args[1])
    executed = sum(
        o.status != CANCELLED for per_loop in outcomes.values() for o in per_loop
    )
    return planned, executed


def _task_info(args, outcome):
    strict = args[0].liveout_policy == "strict"
    return outcome.steps, outcome.verify_comparisons, strict


def _patch_engine(tracer: Tracer) -> None:
    import repro.core.schedule_engine as engine

    for cls in (engine.SerialScheduleEngine, engine.ProcessScheduleEngine):
        tracer.patch_method(cls, "run", "engine", info=_engine_info)
    tracer.patch_function(engine, "execute_task", "schedule", info=_task_info)


def _patch_codegen(tracer: Tracer) -> None:
    """Each compile span carries its (compiles, disk hits, disk misses)
    delta of the codegen counters, so a time window can be summarised."""
    import repro.interp.codegen as codegen

    stats = codegen._STATS
    local = threading.local()

    def counters():
        return stats["compiles"], stats["disk_hits"], stats["disk_misses"]

    def before(args):
        local.before = counters()
        return True

    def delta(args, result):
        return tuple(b - a for a, b in zip(local.before, counters()))

    tracer.patch_function(
        codegen, "compile_module_codegen", "codegen.compile",
        info=delta, when=before,
    )


def _patch_verify(tracer: Tracer) -> None:
    import repro.core.liveout as liveout

    tracer.patch_function(liveout, "capture", "verify.capture")
    tracer.patch_function(liveout, "snapshot_digest", "verify.digest")
    tracer.patch_function(liveout, "snapshots_equal", "verify.compare")


def _patch_cache(tracer: Tracer) -> None:
    from repro.cache.store import AnalysisCache

    tracer.patch_method(
        AnalysisCache, "lookup", "cache.lookup",
        info=lambda a, r: r is not None,
    )
    tracer.patch_method(AnalysisCache, "store", "cache.store")


def _patch_tiering(tracer: Tracer) -> None:
    import repro.analysis.sccdag as sccdag

    tracer.patch_function(sccdag, "build_sccdag", "tiering")
    tracer.patch_function(sccdag, "partition_stages", "tiering")


SEAMS = (
    _patch_frontend,
    _patch_dca,
    _patch_instrument,
    _patch_executor,
    _patch_engine,
    _patch_codegen,
    _patch_verify,
    _patch_cache,
    _patch_tiering,
)


# -- summaries ----------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """sid -> self time in ns: the span minus its direct children."""
    child_ns: Dict[int, int] = defaultdict(int)
    for _sid, _name, start, end, parent, *_ in spans:
        if parent:
            child_ns[parent] += end - start
    return {
        sid: (end - start) - child_ns.get(sid, 0)
        for sid, _name, start, end, *_ in spans
    }


def span_table(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: self ms, total ms and calls."""
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_ms": 0.0, "total_ms": 0.0, "calls": 0}
    )
    for sid, name, start, end, *_ in spans:
        row = table[name]
        row["self_ms"] += selfs[sid] / 1e6
        row["total_ms"] += (end - start) / 1e6
        row["calls"] += 1
    return dict(sorted(table.items()))


def analysis_table(spans: Sequence[Span]) -> List[Dict[str, object]]:
    """Per analysis id, in order: the program its root span names (its
    ``info``) and self ms per span name."""
    selfs = self_times(spans)
    programs: Dict[int, object] = {}
    table: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sid, name, _start, _end, parent, analysis, _tid, info in spans:
        table[analysis][name] += selfs[sid] / 1e6
        if not parent:
            programs[analysis] = info
    return [
        {"program": programs.get(a), "self_ms": dict(table[a])}
        for a in sorted(table)
    ]


def stage_totals(spans: Sequence[Span]) -> Dict[str, float]:
    """Per report stage, the ms of the spans directly under ``dca``."""
    dca = {s[0] for s in spans if s[1] == "dca"}
    totals: Dict[str, float] = defaultdict(float)
    for _sid, name, start, end, parent, *_ in spans:
        stage = STAGE_OF_SPAN.get(name)
        if parent in dca and stage is not None:
            totals[stage] += (end - start) / 1e6
    return dict(totals)


def chrome_trace(spans: Sequence[Span]) -> Dict[str, object]:
    """Spans as Chrome trace-event ``X`` events, one lane per thread."""
    lanes: Dict[int, int] = {}
    origin = min((s[2] for s in spans), default=0)
    events = []
    for sid, name, start, end, parent, analysis, tid, _info in spans:
        events.append({
            "name": name,
            "ph": "X",
            "pid": 1,
            "tid": lanes.setdefault(tid, len(lanes) + 1),
            "ts": (start - origin) / 1000.0,
            "dur": (end - start) / 1000.0,
            "args": {"sid": sid, "parent": parent, "analysis": analysis},
        })
    events.sort(key=lambda e: e["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def load_spans(path: str) -> List[Span]:
    with open(path) as fh:
        rows = json.load(fh)
    return [
        tuple(r[:7]) + (tuple(r[7]) if isinstance(r[7], list) else r[7],)
        for r in rows
    ]


def _serve_main(argv: List[str]) -> int:
    """Host ``repro serve`` with the seams traced; spans go to ``--out``.

    Each request's worker-thread body (``AnalysisServer._execute_job``:
    session, analysis, response serialisation) is one ``session`` root.
    """
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        print("usage: tracing.py --out FILE -- serve [flags]", file=sys.stderr)
        return 2
    out, serve_args = argv[1], argv[3:]
    import repro.cli
    import repro.serve

    tracer = Tracer().install()
    tracer.patch_method(
        repro.serve.AnalysisServer, "_execute_job", "session",
        info=lambda args, result: args[1].name,
    )
    try:
        return repro.cli.main(serve_args)
    finally:
        with open(out, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    raise SystemExit(_serve_main(sys.argv[1:]))
