"""Corpus batch driver: analyze many programs in one run.

``run_batch`` (exposed as :meth:`repro.api.AnalysisSession.batch` and the
``repro batch`` CLI subcommand) takes a corpus — program files,
directories scanned for ``*.mc``, and/or a JSON/JSONL manifest — and
runs the full DCA pipeline over every program:

* **Fan-out** rides the same shared ``ProcessPoolExecutor`` pool the
  schedule engine uses (:func:`repro.core.schedule_engine._shared_pool`),
  one worker task per *program*; inside a worker the analysis itself
  runs on the serial schedule backend, so corpus-level parallelism never
  nests pools.  A serial-backend config runs programs in-process,
  in order.
* **Failure containment**: a program that fails to parse, faults at
  runtime, or kills its worker becomes a recorded
  :class:`ProgramOutcome` (status ``parse-error`` / ``fault`` /
  ``worker-lost``) instead of aborting the corpus.  With
  ``fail_fast=True`` the driver stops *submitting* after the first
  failure; unsubmitted programs are recorded ``skipped`` (in-flight
  pool work still drains and records its real outcome).
* **Streaming**: ``on_result`` is invoked with each
  :class:`ProgramOutcome` as it completes (completion order); the final
  :class:`CorpusResult` lists outcomes in corpus order regardless.
* **Observability**: when the coordinator's obs context is enabled,
  pool workers record into a private context and ship its
  span/metric/event payload back; the coordinator absorbs it, one lane
  per program, yielding a single merged Chrome trace for the whole
  corpus.
* **Caching**: each worker opens the configured persistent cache
  itself (sqlite in WAL mode tolerates the concurrent writers), so a
  re-run of the same corpus is served from cache across the pool.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.lang.errors import MiniCError

__all__ = [
    "CorpusResult",
    "ProgramOutcome",
    "ProgramSpec",
    "discover_programs",
    "load_manifest",
    "run_batch",
]

#: Program outcome statuses.
STATUS_OK = "ok"
STATUS_PARSE_ERROR = "parse-error"
STATUS_FAULT = "fault"
STATUS_WORKER_LOST = "worker-lost"
STATUS_SKIPPED = "skipped"  # fail-fast stopped the corpus before this one


@dataclass
class ProgramSpec:
    """One corpus entry: a program plus optional per-program overrides."""

    path: str
    entry: Optional[str] = None
    args: Optional[Tuple[object, ...]] = None


@dataclass
class ProgramOutcome:
    """Recorded result of analyzing one corpus program."""

    path: str
    index: int
    status: str = STATUS_OK
    error: str = ""
    #: Full serialized report (``DcaReport.to_dict()``) when analysis ran.
    report: Optional[Dict[str, object]] = None
    #: Small headline numbers, also present on failures (zeros).
    loops: int = 0
    commutative: int = 0
    schedule_executions: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_ms: float = 0.0
    #: Worker observability payload (absorbed by the coordinator, then
    #: dropped so outcomes stay lean).
    obs: Optional[Dict[str, object]] = None

    def to_dict(self, include_report: bool = False) -> Dict[str, object]:
        """JSONL line for this program (lean by default)."""
        record: Dict[str, object] = {
            "path": self.path,
            "index": self.index,
            "status": self.status,
            "loops": self.loops,
            "commutative": self.commutative,
            "schedule_executions": self.schedule_executions,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "wall_ms": round(self.wall_ms, 3),
        }
        if self.error:
            record["error"] = self.error
        if include_report and self.report is not None:
            record["report"] = self.report
        return record


@dataclass
class CorpusResult:
    """Aggregate result of one batch run, outcomes in corpus order."""

    outcomes: List[ProgramOutcome] = field(default_factory=list)
    wall_ms: float = 0.0

    @property
    def programs(self) -> int:
        return len(self.outcomes)

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    def verdict_counts(self) -> Dict[str, int]:
        """Loop verdict histogram summed over every analyzed program."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            if not outcome.report:
                continue
            for verdict, n in outcome.report.get("verdict_counts", {}).items():
                counts[verdict] = counts.get(verdict, 0) + n
        return counts

    def to_dict(self) -> Dict[str, object]:
        return {
            "programs": self.programs,
            "status_counts": self.status_counts(),
            "loops": sum(o.loops for o in self.outcomes),
            "commutative_loops": sum(o.commutative for o in self.outcomes),
            "verdict_counts": self.verdict_counts(),
            "schedule_executions": sum(
                o.schedule_executions for o in self.outcomes
            ),
            "cache_hits": sum(o.cache_hits for o in self.outcomes),
            "cache_misses": sum(o.cache_misses for o in self.outcomes),
            "wall_ms": round(self.wall_ms, 3),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def summary(self) -> str:
        counts = self.status_counts()
        ok = counts.get(STATUS_OK, 0)
        parts = [f"{self.programs} programs: {ok} ok"]
        for status in (
            STATUS_PARSE_ERROR,
            STATUS_FAULT,
            STATUS_WORKER_LOST,
            STATUS_SKIPPED,
        ):
            if counts.get(status):
                parts.append(f"{counts[status]} {status}")
        lines = [
            "Batch " + ", ".join(parts),
            f"  loops: {sum(o.loops for o in self.outcomes)} total, "
            f"{sum(o.commutative for o in self.outcomes)} commutative",
            f"  schedule executions: "
            f"{sum(o.schedule_executions for o in self.outcomes)}",
        ]
        hits = sum(o.cache_hits for o in self.outcomes)
        misses = sum(o.cache_misses for o in self.outcomes)
        if hits or misses:
            lines.append(f"  cache: {hits} hits / {misses} misses")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Corpus discovery
# ---------------------------------------------------------------------------


def discover_programs(paths: Sequence[str]) -> List[ProgramSpec]:
    """Expand files and directories (scanned for ``*.mc``, sorted) into
    program specs.  Missing paths raise ``FileNotFoundError`` up front —
    a typo should fail the batch before any work starts."""
    specs: List[ProgramSpec] = []
    for path in paths:
        if os.path.isdir(path):
            names = sorted(
                name
                for name in os.listdir(path)
                if name.endswith(".mc")
                and os.path.isfile(os.path.join(path, name))
            )
            specs.extend(
                ProgramSpec(path=os.path.join(path, name)) for name in names
            )
        elif os.path.isfile(path):
            specs.append(ProgramSpec(path=path))
        else:
            raise FileNotFoundError(f"no such program or directory: {path}")
    return specs


def load_manifest(manifest_path: str) -> List[ProgramSpec]:
    """Parse a corpus manifest into program specs.

    Accepts a JSON array, a ``{"programs": [...]}`` object, or JSONL
    (one entry per line).  Each entry is either a path string or an
    object ``{"path": ..., "entry": ..., "args": [...]}``; ``entry`` and
    ``args`` override the batch config for that program.  Relative paths
    resolve against the manifest's directory.
    """
    with open(manifest_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = [
            json.loads(line)
            for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
    if isinstance(data, dict):
        data = data.get("programs", [])
    if not isinstance(data, list):
        raise ValueError(
            f"manifest {manifest_path}: expected a list of programs"
        )
    base = os.path.dirname(os.path.abspath(manifest_path))
    specs: List[ProgramSpec] = []
    for item in data:
        if isinstance(item, str):
            item = {"path": item}
        if not isinstance(item, dict) or "path" not in item:
            raise ValueError(
                f"manifest {manifest_path}: entry {item!r} has no path"
            )
        path = item["path"]
        if not os.path.isabs(path):
            path = os.path.join(base, path)
        args = item.get("args")
        specs.append(
            ProgramSpec(
                path=path,
                entry=item.get("entry"),
                args=tuple(args) if args is not None else None,
            )
        )
    return specs


# ---------------------------------------------------------------------------
# Per-program analysis (runs in-process or inside a pool worker)
# ---------------------------------------------------------------------------


def _program_config(config, spec: ProgramSpec):
    """The effective config for one program (manifest overrides applied)."""
    changes: Dict[str, object] = {}
    if spec.entry is not None:
        changes["entry"] = spec.entry
    if spec.args is not None:
        changes["args"] = spec.args
    return config.replace(**changes) if changes else config


def analyze_program_spec(
    config, spec: ProgramSpec, index: int, ship_obs: bool = False
) -> ProgramOutcome:
    """Analyze one corpus program, converting failures into outcomes.

    ``ship_obs=True`` (pool workers) records the analysis into a private
    observability context and ships its serialized payload back for the
    coordinator to absorb; in-process callers record straight into the
    ambient context instead.
    """
    from repro.api import AnalysisSession

    outcome = ProgramOutcome(path=spec.path, index=index)
    start = time.perf_counter()
    ctx = None
    if ship_obs:
        if obs.is_enabled():
            # A forked worker inherits the coordinator's enabled context;
            # recording into it would silently accumulate cross-process.
            obs.disable()
        ctx = obs.enable()
    try:
        with open(spec.path, "r", encoding="utf-8") as fh:
            source = fh.read()
        # The batch records one aggregate ledger row itself; per-program
        # sessions must not each append an "analyze" row on top.
        program_config = _program_config(config, spec).replace(
            ledger_dir="off"
        )
        with AnalysisSession(program_config) as session:
            with obs.current().span("batch.program", path=spec.path):
                report = session.analyze(source, source_path=spec.path)
        outcome.report = report.to_dict()
        outcome.loops = len(report.results)
        outcome.commutative = len(report.commutative_loops())
        outcome.schedule_executions = report.schedule_executions
        outcome.cache_hits = report.cache.hits
        outcome.cache_misses = report.cache.misses
    except MiniCError as exc:
        outcome.status = STATUS_PARSE_ERROR
        outcome.error = str(exc)
    except OSError as exc:
        outcome.status = STATUS_PARSE_ERROR
        outcome.error = str(exc)
    except Exception as exc:  # runtime fault, step-budget blowout, ...
        outcome.status = STATUS_FAULT
        outcome.error = repr(exc)
    finally:
        outcome.wall_ms = (time.perf_counter() - start) * 1000.0
        if ctx is not None:
            outcome.obs = ctx.payload()
            obs.disable()
    return outcome


def _run_in_worker(
    config, spec: ProgramSpec, index: int, ship_obs: bool
) -> ProgramOutcome:
    """Pool-worker entry point: serial analysis, no nested pools."""
    worker_config = config.replace(backend="serial", jobs=None)
    return analyze_program_spec(worker_config, spec, index, ship_obs=ship_obs)


def _lost_outcome(spec: ProgramSpec, index: int, error: str) -> ProgramOutcome:
    return ProgramOutcome(
        path=spec.path,
        index=index,
        status=STATUS_WORKER_LOST,
        error=error,
    )


# ---------------------------------------------------------------------------
# Observability plumbing
# ---------------------------------------------------------------------------


def _note_outcome(ctx, outcome: ProgramOutcome) -> None:
    """Per-program outcome metrics (status counter + wall-time histogram)."""
    if ctx.enabled:
        ctx.count(f"batch.outcome.{outcome.status}")
        ctx.observe("batch.program.wall_ms", outcome.wall_ms)


def _absorb_or_flush(ctx, outcome: ProgramOutcome, lane: int) -> None:
    """Merge a worker's obs payload onto the program's trace lane.

    A program whose worker died (or whose submission failed) never
    shipped a payload; synthesize a span + error event on its lane so
    the failure still appears in the merged trace instead of silently
    dropping its telemetry.
    """
    if not ctx.enabled:
        outcome.obs = None
        return
    if outcome.obs is not None:
        ctx.absorb(outcome.obs, lane=lane)
        outcome.obs = None
        return
    if outcome.status == STATUS_OK:
        return
    ctx.tracer.absorb(
        [
            {
                "sid": 0,
                "parent": None,
                "name": "batch.program",
                "args": {
                    "path": outcome.path,
                    "status": outcome.status,
                    "synthetic": True,
                },
                "path": ["batch.program"],
                "start_us": 0.0,
                "dur_us": max(outcome.wall_ms * 1000.0, 1.0),
                "depth": 0,
            }
        ],
        lane=lane,
    )
    ctx.event(
        "error",
        "batch.telemetry-lost",
        f"{outcome.path}: worker shipped no telemetry ({outcome.status})",
        provenance="batch",
        path=outcome.path,
        status=outcome.status,
        error=outcome.error,
    )


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def run_batch(
    config,
    paths: Sequence[str] = (),
    manifest: Optional[str] = None,
    on_result: Optional[Callable[[ProgramOutcome], None]] = None,
    fail_fast: bool = False,
) -> CorpusResult:
    """Analyze a corpus of programs under one :class:`AnalysisConfig`.

    ``paths`` mixes program files and directories; ``manifest`` appends
    entries from a JSON/JSONL manifest.  ``on_result`` streams each
    :class:`ProgramOutcome` as it completes.  Per-program failures are
    recorded, never raised; the returned :class:`CorpusResult` lists
    outcomes in corpus order.  ``fail_fast=True`` stops submitting new
    programs after the first failure: unsubmitted programs are recorded
    with status ``skipped`` (already-running pool workers drain and
    record their real outcomes).
    """
    specs = discover_programs(paths)
    if manifest is not None:
        specs.extend(load_manifest(manifest))
    if not specs:
        raise ValueError("empty corpus: no programs found")

    resolved = config.resolved()
    start = time.perf_counter()
    if resolved.backend == "process" and len(specs) > 1:
        outcomes = _run_pooled(
            config, specs, resolved.jobs, on_result, fail_fast
        )
    else:
        outcomes = _run_serial(config, specs, on_result, fail_fast)
    return CorpusResult(
        outcomes=outcomes, wall_ms=(time.perf_counter() - start) * 1000.0
    )


def _emit(outcome: ProgramOutcome, on_result) -> None:
    if on_result is not None:
        on_result(outcome)


def _skipped_outcome(
    spec: ProgramSpec, index: int, culprit: str
) -> ProgramOutcome:
    return ProgramOutcome(
        path=spec.path,
        index=index,
        status=STATUS_SKIPPED,
        error=f"skipped by fail-fast after {culprit}",
    )


def _run_serial(
    config, specs: List[ProgramSpec], on_result, fail_fast: bool = False
) -> List[ProgramOutcome]:
    ctx = obs.current()
    outcomes: List[ProgramOutcome] = []
    for index, spec in enumerate(specs):
        outcome = analyze_program_spec(config, spec, index)
        _note_outcome(ctx, outcome)
        outcomes.append(outcome)
        _emit(outcome, on_result)
        if fail_fast and outcome.status != STATUS_OK:
            for rest in range(index + 1, len(specs)):
                skipped = _skipped_outcome(specs[rest], rest, spec.path)
                _note_outcome(ctx, skipped)
                outcomes.append(skipped)
                _emit(skipped, on_result)
            break
    return outcomes


def _run_pooled(
    config,
    specs: List[ProgramSpec],
    jobs: Optional[int],
    on_result,
    fail_fast: bool = False,
) -> List[ProgramOutcome]:
    """Fan programs out over the shared schedule-engine worker pool."""
    from concurrent.futures.process import ProcessPoolExecutor

    from repro.core.schedule_engine import (
        _discard_pool,
        _mp_context,
        _shared_pool,
    )

    jobs = max(1, jobs or os.cpu_count() or 1)
    ctx = obs.current()
    outcomes: List[Optional[ProgramOutcome]] = [None] * len(specs)
    future_map: Dict[object, int] = {}
    pool_broken = False

    def submit(index: int) -> None:
        try:
            fut = _shared_pool(jobs).submit(
                _run_in_worker, config, specs[index], index, ctx.enabled
            )
        except BrokenProcessPool:
            _discard_pool(jobs)
            ctx.count("batch.pool_rebuilds")
            fut = _shared_pool(jobs).submit(
                _run_in_worker, config, specs[index], index, ctx.enabled
            )
        future_map[fut] = index

    def retry_isolated(index: int) -> ProgramOutcome:
        # A broken pool cannot attribute the death to a program, so each
        # in-flight program is retried alone; one that kills its private
        # worker again is the culprit and is recorded worker-lost.
        pool = ProcessPoolExecutor(max_workers=1, mp_context=_mp_context())
        try:
            return pool.submit(
                _run_in_worker, config, specs[index], index, ctx.enabled
            ).result()
        except BrokenProcessPool:
            return _lost_outcome(
                specs[index], index, "worker process died during analysis"
            )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def collect(fut, index: int) -> ProgramOutcome:
        nonlocal pool_broken
        try:
            return fut.result()
        except BrokenProcessPool:
            pool_broken = True
            return retry_isolated(index)
        except Exception as exc:  # submission/pickling failure
            outcome = _lost_outcome(specs[index], index, repr(exc))
            outcome.status = STATUS_FAULT
            return outcome

    def handle(index: int, outcome: ProgramOutcome) -> None:
        # One trace lane per program keeps the merged Chrome trace
        # readable: lanes are stable corpus indices.
        _absorb_or_flush(ctx, outcome, lane=index + 1)
        _note_outcome(ctx, outcome)
        outcomes[index] = outcome
        _emit(outcome, on_result)

    # With fail-fast, submissions go out in a sliding window of `jobs`
    # so "stop submitting after the first failure" has something left
    # to stop; otherwise everything is submitted up front as before.
    next_index = 0
    window = min(len(specs), jobs) if fail_fast else len(specs)
    failed_path: Optional[str] = None
    for _ in range(window):
        submit(next_index)
        next_index += 1
    while future_map:
        done, _ = wait(set(future_map), return_when=FIRST_COMPLETED)
        for fut in done:
            index = future_map.pop(fut)
            outcome = collect(fut, index)
            handle(index, outcome)
            if (
                fail_fast
                and failed_path is None
                and outcome.status != STATUS_OK
            ):
                failed_path = specs[index].path
            if failed_path is None and next_index < len(specs):
                submit(next_index)
                next_index += 1
        if pool_broken:
            # The broken pool poisons every outstanding future; drain
            # them via isolated retries, then discard it so any later
            # analysis starts a fresh pool.
            for fut in list(future_map):
                index = future_map.pop(fut)
                handle(index, collect(fut, index))
            _discard_pool(jobs)
            ctx.count("batch.pool_rebuilds")
            pool_broken = False
    if failed_path is not None:
        for index in range(next_index, len(specs)):
            skipped = _skipped_outcome(specs[index], index, failed_path)
            _note_outcome(ctx, skipped)
            outcomes[index] = skipped
            _emit(skipped, on_result)
    return [o for o in outcomes if o is not None]
