"""Pluggable schedule-execution backends (serial / multiprocess).

The dynamic stage of DCA is embarrassingly parallel: every permutation
schedule of a loop is an independent re-execution of the instrumented
program, compared against the golden snapshots.  This module factors the
"execute one schedule" step out of :class:`~repro.core.dca.DcaAnalyzer`
into picklable **work units** that a backend can run anywhere:

* :class:`ScheduleTask` — one schedule execution: the pickled
  instrumented test module, the schedule object, the loop's
  :class:`~repro.core.instrument.VerifySpec`, the golden snapshots for
  that loop (strict policy) or the golden program outcome (eventual
  policy), plus the step budget and timing/observability switches.
* :class:`ScheduleOutcome` — the compact result a backend ships back:
  verdict-relevant booleans, cost counters, a **content digest** of the
  captured live-out snapshots, and a compact mismatch report — never the
  full heap snapshots.
* :class:`LoopPlan` — the ordered task list for one loop (identity
  first, then the perturbing schedules).

Two backends implement :class:`ScheduleEngine`:

* :class:`SerialScheduleEngine` executes plans in order, in process,
  short-circuiting a loop's remaining schedules on the first failure —
  byte-for-byte the classic sequential behaviour.
* :class:`ProcessScheduleEngine` fans tasks out to a worker pool
  (``concurrent.futures.ProcessPoolExecutor``).  Identity schedules for
  every loop are submitted immediately; a loop's perturbing schedules
  are submitted once its identity replay passes the gate.  When any
  schedule of a loop fails, pending schedules *after* it (in task
  order) are cancelled — schedules *before* it still run to completion
  so the merged report stays deterministic.  Submission, collection
  and worker-death recovery are :class:`PoolRun`'s, the one pool loop
  this engine shares with the corpus batch driver: a worker that dies
  (OOM-killed, ``os._exit``) breaks the pool, the broken pool is dropped
  so later submissions land on a fresh one, and each affected task is
  retried alone; one that dies again is reported ``worker-lost`` so the
  analyzer can fault the loop instead of hanging.

**Determinism contract.**  For a fixed program + workload + schedule
preset, both backends produce the same outcomes for every *consumed*
task (everything up to and including a loop's first failure).  The
process backend may speculatively execute schedules the serial backend
would have skipped; the analyzer discards those at merge time, so
reports, ``decided_by`` provenance and counters are identical.  Wall
and CPU times are the only nondeterministic fields.  A replay's wall
time is the duration of its ``dca.schedule`` span, on the clock of the
observability context; its CPU time is the executing thread's.  Running
the analysis under an injected zero clock (``obs.disabled(clock=...)``)
zeroes both (workers then run with a zero clock), which makes the full
JSON report byte-identical across backends — the invariant the
differential fuzz harness and
``benchmarks/test_schedule_engine_speedup.py`` enforce.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.core.instrument import VerifySpec
from repro.core.liveout import (
    Snapshot,
    canonicalize_snapshot,
    capture,
    snapshots_equal,
)
from repro.core.report import add_counters
from repro.core.runtime import CommutativityMismatch, DcaRuntime
from repro.core.schedules import Schedule
from repro.interp.codegen import CodegenProgram, compile_module_codegen
from repro.interp.compiler import select_executor
from repro.interp.values import MiniCRuntimeError
from repro.settings import SETTINGS, resolve

__all__ = [
    "FAULT_STYLES",
    "LoopPlan",
    "PoolRun",
    "ProcessScheduleEngine",
    "ScheduleEngine",
    "ScheduleOutcome",
    "ScheduleTask",
    "SerialScheduleEngine",
    "create_engine",
    "engine_queue_depth",
    "execute_task",
    "outcome_failure",
    "outcome_fails",
    "program_outcome",
    "resolve_schedule_backend",
    "shared_pool_jobs",
    "should_test",
    "warm_shared_pool",
]

#: Outcome statuses.
OK = "ok"
MISMATCH = "mismatch"  # live-out divergence (fail-fast abort)
FAULT = "fault"  # MiniCRuntimeError / injected or real OOM
WORKER_LOST = "worker-lost"  # worker process died mid-execution
CANCELLED = "cancelled"  # early-cancelled; never executed

#: Supported fault-injection styles (testing hook, threaded through
#: ``DcaAnalyzer(fault_injection=...)``): ``raise`` raises a MiniC
#: runtime error, ``oom`` raises :class:`MemoryError`, ``exit`` kills
#: the worker process outright (mapped to an in-process exception under
#: the serial backend, which must never kill the analyzer).
FAULT_STYLES = ("raise", "oom", "exit")


def _zero_clock() -> float:
    """Deterministic clock used when timing must not leak into reports."""
    return 0.0


class _InjectedWorkerDeath(Exception):
    """Serial-backend stand-in for a worker process dying."""


def _fire_fault(style: str, in_process: bool) -> None:
    if style == "raise":
        raise MiniCRuntimeError("injected fault: raise")
    if style == "oom":
        raise MemoryError("injected fault: oom")
    if style == "exit":
        if in_process:
            # Killing the analyzer process is never acceptable; the
            # serial backend degrades the injection to a plain fault.
            raise _InjectedWorkerDeath("injected fault: exit (serial)")
        os._exit(21)
    raise ValueError(f"unknown fault style {style!r}; expected {FAULT_STYLES}")


# ---------------------------------------------------------------------------
# Work units
# ---------------------------------------------------------------------------


@dataclass
class ScheduleTask:
    """One picklable schedule execution, rehydrated inside a worker."""

    label: str
    index: int  # position in the loop's task order (0 = identity)
    entry: str
    args: List[object]
    schedule: Schedule
    spec: VerifySpec
    #: Pickled instrumented test module (shared bytes across the loop's
    #: tasks — unpickling yields a private copy per execution).
    module_blob: bytes
    #: Sorted global names of the module (eventual-policy outcome roots).
    global_names: List[str]
    #: Execution backend (``codegen`` or ``interp``), resolved by the
    #: analyzer; see :func:`~repro.interp.compiler.select_executor`.
    exec_backend: str
    #: Golden live-out snapshots for this loop (strict policy only), each
    #: pickled with its memoized digest for the digest-first compare.
    golden: Optional[List[Snapshot]] = None
    #: Golden program outcome ``(stdout, return, globals snapshot)``
    #: (eventual policy only).
    golden_outcome: Optional[Tuple] = None
    liveout_policy: str = "strict"
    rtol: float = 1e-9
    max_steps: Optional[int] = None
    #: False → workers run on a zero clock and report 0.0 wall/cpu ms
    #: (the coordinator's context clock was injected).
    measure_time: bool = True
    #: Record worker-local spans/metrics/events and ship them back.
    obs_enabled: bool = False
    #: Testing hook: one of :data:`FAULT_STYLES`, fired before execution.
    inject_fault: Optional[str] = None

    @property
    def schedule_name(self) -> str:
        return self.schedule.name


@dataclass
class ScheduleOutcome:
    """Compact, picklable result of one schedule execution.

    Ships a content digest of the captured snapshots plus a small
    mismatch report — never the snapshots themselves.
    """

    label: str
    schedule_name: str
    index: int
    status: str = OK
    #: Eventual-policy final-outcome comparison (True under strict).
    outcome_ok: bool = True
    violations: int = 0
    invocation_count: int = 0
    max_trip: int = 0
    steps: int = 0
    snapshots_taken: int = 0
    snapshot_nodes: int = 0
    snapshot_bytes: int = 0
    verify_comparisons: int = 0
    mismatches: int = 0
    wall_ms: float = 0.0
    cpu_ms: float = 0.0
    #: Content hash of every snapshot this execution captured.
    snapshot_digest: str = ""
    #: Compact description of the first live-out divergence, if any.
    mismatch_report: Optional[Dict[str, object]] = None
    error: str = ""
    #: Worker observability payload (spans/metrics/events), merged by the
    #: coordinator; None for in-process execution.
    obs: Optional[Dict[str, object]] = None

    @property
    def executed(self) -> bool:
        return self.status != CANCELLED


@dataclass
class LoopPlan:
    """The ordered schedule executions planned for one loop."""

    label: str
    #: Invocation count the golden run observed for this loop.
    expected_invocations: int
    tasks: List[ScheduleTask] = field(default_factory=list)


#: Failure kinds of one schedule execution (see :func:`outcome_failure`).
FAILED_FAULT = "fault"
FAILED_LIVEOUT = "live-out"
FAILED_INVOCATIONS = "invocations"


def outcome_failure(
    outcome: ScheduleOutcome, expected_invocations: int
) -> Optional[str]:
    """Why this outcome terminates the loop's schedule testing, or None.

    The kinds, first match wins: the execution faulted
    (:data:`FAILED_FAULT`), its live-outs or final outcome diverged
    (:data:`FAILED_LIVEOUT`), or it changed the loop's invocation count
    (:data:`FAILED_INVOCATIONS`).  Both backends' short-circuits and the
    analyzer's verdicts derive from this single definition.
    """
    if outcome.status != OK and outcome.status != MISMATCH:
        return FAILED_FAULT
    if outcome.violations or not outcome.outcome_ok:
        return FAILED_LIVEOUT
    if outcome.invocation_count != expected_invocations:
        return FAILED_INVOCATIONS
    return None


def outcome_fails(outcome: ScheduleOutcome, expected_invocations: int) -> bool:
    """Whether this outcome terminates the loop's schedule testing."""
    return outcome_failure(outcome, expected_invocations) is not None


def should_test(plan: LoopPlan, identity: ScheduleOutcome) -> bool:
    """Gate: run perturbing schedules only when the identity replay is
    faithful and the loop actually iterates (≥2 trips somewhere)."""
    return not outcome_fails(identity, plan.expected_invocations) and (
        identity.max_trip >= 2
    )


def cancelled_outcome(task: ScheduleTask) -> ScheduleOutcome:
    return ScheduleOutcome(
        label=task.label,
        schedule_name=task.schedule_name,
        index=task.index,
        status=CANCELLED,
    )


# ---------------------------------------------------------------------------
# Task execution (shared by both backends)
# ---------------------------------------------------------------------------

#: Per-process cache of codegen-compiled modules keyed by the pickled
#: module blob.  The same instrumented module executes once per schedule
#: (and, under ``--backend process``, once per worker × schedule), but
#: the blob bytes are shared/identical across all of a loop's tasks — so
#: each worker process compiles (or loads the artifact of, and
#: unpickles) a test module exactly once and replays it across every
#: ScheduleTask that ships the same blob.  Insertion-ordered with FIFO
#: eviction: analyses sweep loop by loop, so the working set is tiny and
#: recency tracking would buy nothing.
_CODEGEN_BLOB_CACHE: Dict[bytes, CodegenProgram] = {}
_CODEGEN_BLOB_CACHE_MAX = 128
# Read and cleared by perfbench/workloads.py::drop_exec_memos.
_COMPILED_BLOB_CACHE = _CODEGEN_BLOB_CACHE


def _codegen_for_blob(module_blob: bytes) -> CodegenProgram:
    """Unpickle + codegen-compile a module blob, cached per process."""
    program = _CODEGEN_BLOB_CACHE.get(module_blob)
    if program is None:
        obs.current().count("schedule.codegen_blob_cache.misses")
        program = compile_module_codegen(pickle.loads(module_blob))
        while len(_CODEGEN_BLOB_CACHE) >= _CODEGEN_BLOB_CACHE_MAX:
            _CODEGEN_BLOB_CACHE.pop(next(iter(_CODEGEN_BLOB_CACHE)))
        _CODEGEN_BLOB_CACHE[module_blob] = program
    else:
        obs.current().count("schedule.codegen_blob_cache.hits")
    return program


def program_outcome(executor, result: object, global_names, chain_slots=None):
    """``(output, return value, globals snapshot)`` of a finished run: the
    eventual policy's observable outcome, for the golden run and every
    replay alike.  Declared chain slots (``(struct, next field)`` pairs)
    canonicalize the snapshot exactly like ``rt_verify`` does."""
    final = capture([executor.globals[name] for name in global_names])
    if chain_slots:
        final = canonicalize_snapshot(final, dict(chain_slots))
    return executor.output_text(), result, final


def execute_task(
    task: ScheduleTask, obs_ctx=None, in_process: bool = False
) -> ScheduleOutcome:
    """Run one schedule execution and summarize it.

    Wall time is the ``dca.schedule`` span's duration; CPU time is this
    thread's alone (other threads of a serving process do not count),
    zeroed when the context's clock was injected.

    Faults (MiniC runtime errors, injected OOMs, any unexpected
    exception) are converted into a ``fault`` outcome — a schedule that
    crashes must fault its loop, not the analyzer.
    """
    if obs_ctx is None:
        obs_ctx = obs.current()
    cpu_clock = time.thread_time if obs_ctx.measures_time else _zero_clock

    outcome = ScheduleOutcome(
        label=task.label, schedule_name=task.schedule_name, index=task.index
    )
    strict = task.liveout_policy == "strict"
    runtime = DcaRuntime(
        specs={task.label: task.spec},
        schedule=task.schedule,
        golden={task.label: list(task.golden or [])} if strict else None,
        rtol=task.rtol,
        fail_fast=True,
        capture=None if strict else (),
    )
    # Codegen replays reuse the per-process program cache; the executor
    # itself is fresh per task (own heap/globals/output).
    interp = select_executor(
        task.exec_backend,
        lambda: _codegen_for_blob(task.module_blob),
        lambda: pickle.loads(task.module_blob),
        runtime=runtime,
        max_steps=task.max_steps,
    )
    mismatch = False
    fault = False
    cpu_start = cpu_clock()
    try:
        with obs_ctx.span(
            "dca.schedule", loop=task.label, schedule=task.schedule_name
        ) as sp:
            try:
                if task.inject_fault:
                    _fire_fault(task.inject_fault, in_process)
                entry_result = interp.run(task.entry, task.args)
            except CommutativityMismatch:
                mismatch = True  # recorded in runtime.violations
            except MiniCRuntimeError:
                fault = True
            except Exception as exc:  # OOM, injected death, anything else
                fault = True
                outcome.error = repr(exc)
            else:
                if not strict:
                    golden_out, golden_ret, golden_globals = task.golden_outcome
                    out, ret, final = program_outcome(
                        interp, entry_result, task.global_names,
                        task.spec.equivalence,
                    )
                    outcome.outcome_ok = (
                        out == golden_out
                        and ret == golden_ret
                        and snapshots_equal(golden_globals, final, rtol=task.rtol)
                    )
            sp.set(instructions=interp.steps, mismatch=mismatch, fault=fault)
    finally:
        outcome.wall_ms = sp.dur_ms
        outcome.cpu_ms = (cpu_clock() - cpu_start) * 1000.0
        outcome.steps = interp.steps
        outcome.invocation_count = runtime.invocation_count(task.label)
        outcome.max_trip = runtime.max_trip_count(task.label)
        outcome.violations = len(runtime.violations)
        add_counters(outcome, runtime)
        outcome.snapshot_digest = runtime.snapshot_content_digest()
        outcome.mismatch_report = runtime.first_mismatch_report()
    outcome.status = FAULT if fault else (MISMATCH if mismatch else OK)
    return outcome


def run_task_in_worker(task: ScheduleTask) -> ScheduleOutcome:
    """Worker-process entry point: rehydrate, execute, summarize.

    When the coordinator has observability enabled, the worker's
    spans/metrics/events ship back inside the outcome for merging.
    """
    outcome, payload = obs.record_in_worker(
        lambda: execute_task(task, in_process=False),
        ship=task.obs_enabled,
        clock=None if task.measure_time else _zero_clock,
    )
    outcome.obs = payload
    return outcome


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class ScheduleEngine:
    """Executes the schedule plans of one analysis run."""

    name = "abstract"
    jobs = 1
    #: Whether the backend itself opens per-loop ``dca.loop`` spans (the
    #: serial backend nests schedule spans inside them live; the process
    #: backend leaves that to the analyzer's merge step).
    emits_loop_spans = False

    def run(self, plans: Sequence[LoopPlan]) -> Dict[str, List[ScheduleOutcome]]:
        """Execute every plan; returns outcomes per label, in task order.

        Contract: for each plan, every task up to and including the
        first failing one (in task order) has an executed outcome;
        later entries may be ``cancelled``.
        """
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial
        pass


class SerialScheduleEngine(ScheduleEngine):
    """In-process sequential execution — the classic behaviour."""

    name = "serial"
    emits_loop_spans = True

    def run(self, plans: Sequence[LoopPlan]) -> Dict[str, List[ScheduleOutcome]]:
        ctx = obs.current()
        results: Dict[str, List[ScheduleOutcome]] = {}
        for plan in plans:
            outcomes = [cancelled_outcome(task) for task in plan.tasks]
            with ctx.span("dca.loop", loop=plan.label):
                identity = execute_task(
                    plan.tasks[0], obs_ctx=ctx, in_process=True
                )
                outcomes[0] = identity
                if should_test(plan, identity):
                    for i in range(1, len(plan.tasks)):
                        outcome = execute_task(
                            plan.tasks[i], obs_ctx=ctx, in_process=True
                        )
                        outcomes[i] = outcome
                        if outcome_fails(outcome, plan.expected_invocations):
                            break  # short-circuit: rest stay cancelled
            results[plan.label] = outcomes
        return results


#: Shared worker pools keyed by job count — reused across engines (and
#: analyzer instances) so repeated small analyses don't pay pool startup
#: every time.  A pool a worker death broke is dropped (``PoolRun``) and
#: the next submission builds a fresh one.
_SHARED_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _mp_context():
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _shared_pool(jobs: int) -> ProcessPoolExecutor:
    pool = _SHARED_POOLS.get(jobs)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=jobs, mp_context=_mp_context())
        _SHARED_POOLS[jobs] = pool
    return pool


def shutdown_shared_pools() -> None:
    """Tear down every shared worker pool (tests, interpreter exit)."""
    while _SHARED_POOLS:
        _, pool = _SHARED_POOLS.popitem()
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_shared_pools)


def warm_shared_pool(jobs: Optional[int] = None) -> int:
    """Pre-fork the shared worker pool and block until every worker is
    alive.  ``ProcessPoolExecutor`` spawns workers lazily on first
    submit; a long-lived server calls this once at startup so no client
    request ever pays pool spin-up.  Returns the worker count."""
    jobs = max(1, jobs or os.cpu_count() or 1)
    pool = _shared_pool(jobs)
    # One no-op per worker forces every process to exist now; collecting
    # the results waits for them to finish booting.
    for fut in [pool.submit(os.getpid) for _ in range(jobs)]:
        fut.result()
    return jobs


def shared_pool_jobs() -> List[int]:
    """Job counts of the currently live shared pools (diagnostics)."""
    return sorted(_SHARED_POOLS)


class PoolRun:
    """One run's items on the shared pool of ``jobs`` workers: the pool
    loop the schedule engine and the corpus batch driver both drive.

    Callers :meth:`submit` keyed items and iterate the run for ``(key,
    result)`` pairs in completion order, submitting or :meth:`cancel`-ing
    more as they go, until nothing is pending.  The recovery rule: a
    worker death fails every future of its pool at once without naming
    the culprit, so the broken pool is dropped as soon as it is seen
    (later submissions land on a fresh pool that stays alive) and each
    affected item is re-run alone in a throwaway one-worker pool.  An
    item that dies again (``BrokenProcessPool``) or cannot be submitted
    becomes ``failed(key, exc)``, the caller's outcome.  A pool holding
    futures the run waits on is never shut down: a cancelled future never
    wakes ``wait``.  Counts ``<prefix>.pool_rebuilds`` per dropped pool
    and ``<prefix>.worker_retries`` per isolated retry.
    """

    def __init__(
        self,
        jobs: int,
        prefix: str,
        failed: Callable[[object, BaseException], object],
    ):
        self.jobs = jobs
        self.prefix = prefix
        self._failed = failed
        self._ctx = obs.current()
        #: future -> (key, pool it went to, fn, args)
        self.pending: Dict[object, Tuple[object, object, Callable, tuple]] = {}

    def submit(self, key: object, fn: Callable, *args) -> None:
        pool = _shared_pool(self.jobs)
        try:
            fut = pool.submit(fn, *args)
        except BrokenProcessPool:
            # A worker death broke the shared pool before this run saw
            # any of its futures fail (e.g. under an earlier run).
            self._drop(pool)
            pool = _shared_pool(self.jobs)
            fut = pool.submit(fn, *args)
        self.pending[fut] = (key, pool, fn, args)

    def cancel(self, match: Callable[[object], bool]) -> List[object]:
        """Cancel pending items whose key matches and that no worker has
        started; returns their keys (they are never yielded)."""
        cancelled = []
        for fut, (key, _, _, _) in list(self.pending.items()):
            if match(key) and fut.cancel():
                del self.pending[fut]
                cancelled.append(key)
        return cancelled

    def __iter__(self) -> Iterator[Tuple[object, object]]:
        while self.pending:
            done, _ = wait(set(self.pending), return_when=FIRST_COMPLETED)
            for fut in done:
                key, pool, fn, args = self.pending.pop(fut)
                yield key, self._collect(fut, key, pool, fn, args)

    def _collect(self, fut, key, pool, fn, args) -> object:
        try:
            try:
                return fut.result()
            except BrokenProcessPool:
                self._drop(pool)
                self._ctx.count(f"{self.prefix}.worker_retries")
                isolated = ProcessPoolExecutor(
                    max_workers=1, mp_context=_mp_context()
                )
                try:
                    return isolated.submit(fn, *args).result()
                finally:
                    isolated.shutdown(wait=False)
        except Exception as exc:  # a second death, submission/pickling failure
            return self._failed(key, exc)

    def _drop(self, pool: ProcessPoolExecutor) -> None:
        # Only the broken pool itself: another run (or thread) may have
        # replaced it already, and that fresh pool holds live futures.
        if _SHARED_POOLS.get(self.jobs) is pool:
            del _SHARED_POOLS[self.jobs]
            pool.shutdown(wait=False)
            self._ctx.count(f"{self.prefix}.pool_rebuilds")


#: Process-wide count of schedule tasks submitted to the shared pools
#: and not yet collected — the load signal the serving layer's admission
#: control and ``/healthz`` read.  Updated by every ProcessScheduleEngine
#: run in this process, across threads.
_INFLIGHT = 0
_INFLIGHT_LOCK = threading.Lock()


def _inflight_delta(n: int) -> None:
    global _INFLIGHT
    with _INFLIGHT_LOCK:
        _INFLIGHT += n


def engine_queue_depth() -> int:
    """Schedule tasks currently in flight on the shared pools."""
    return _INFLIGHT


def _failed_outcome(
    key: Tuple[LoopPlan, int], exc: BaseException
) -> ScheduleOutcome:
    plan, index = key
    outcome = cancelled_outcome(plan.tasks[index])
    lost = isinstance(exc, BrokenProcessPool)
    outcome.status = WORKER_LOST if lost else FAULT
    outcome.error = (
        "worker process died during execution" if lost else repr(exc)
    )
    return outcome


class ProcessScheduleEngine(ScheduleEngine):
    """Multiprocess fan-out over the shared worker pool."""

    name = "process"
    emits_loop_spans = False

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = max(1, jobs or os.cpu_count() or 1)

    def run(self, plans: Sequence[LoopPlan]) -> Dict[str, List[ScheduleOutcome]]:
        if not plans:
            return {}
        ctx = obs.current()
        results: Dict[str, List[ScheduleOutcome]] = {
            plan.label: [cancelled_outcome(task) for task in plan.tasks]
            for plan in plans
        }
        #: label -> index of the earliest known failure (or None).
        fail_at: Dict[str, Optional[int]] = {plan.label: None for plan in plans}
        pool = PoolRun(self.jobs, "schedule", _failed_outcome)

        def note_queue_depth() -> None:
            # Gauge, not counter: the exported value is the high-water
            # view of the in-flight task window at the last transition.
            # The process-wide mirror (engine_queue_depth) feeds the
            # serving layer's admission control.
            ctx.gauge("schedule.queue_depth", len(pool.pending))

        def submit(plan: LoopPlan, index: int) -> None:
            pool.submit((plan, index), run_task_in_worker, plan.tasks[index])
            _inflight_delta(1)
            ctx.count("schedule.tasks_submitted")
            note_queue_depth()

        for plan in plans:
            submit(plan, 0)
        for (plan, index), outcome in pool:
            _inflight_delta(-1)
            note_queue_depth()
            results[plan.label][index] = outcome
            if index == 0:
                if should_test(plan, outcome):
                    for i in range(1, len(plan.tasks)):
                        submit(plan, i)
                continue
            if not outcome_fails(outcome, plan.expected_invocations):
                continue
            first = fail_at[plan.label]
            if first is None or index < first:
                fail_at[plan.label] = index
                # Early-cancel everything *after* the failure; earlier
                # schedules must still complete for deterministic merging.
                cancelled = pool.cancel(
                    lambda key: key[0] is plan and key[1] > index
                )
                for _, i in cancelled:
                    results[plan.label][i] = cancelled_outcome(plan.tasks[i])
                if cancelled:
                    _inflight_delta(-len(cancelled))
                    ctx.count("schedule.tasks_cancelled", len(cancelled))
                note_queue_depth()
        return results

    def close(self) -> None:
        # Shared pools outlive individual engines on purpose; nothing to
        # tear down per run.  ``shutdown_shared_pools`` exists for tests.
        pass


def resolve_schedule_backend(
    backend: Optional[str] = None, jobs: Optional[int] = None
) -> Tuple[str, Optional[int]]:
    """Resolve the schedule backend and job count.

    Explicit arguments (CLI flags, API config) always beat the
    environment — in particular, an explicit ``jobs > 1`` implies the
    process backend even when ``REPRO_SCHEDULE_BACKEND=serial`` is set.
    The documented order:

    backend
        1. explicit ``backend`` argument;
        2. implied ``process`` by an explicit ``jobs > 1``;
        3. ``REPRO_SCHEDULE_BACKEND``;
        4. implied ``process`` by ``REPRO_SCHEDULE_JOBS > 1``;
        5. ``serial``.
    jobs
        1. explicit ``jobs`` argument;
        2. ``REPRO_SCHEDULE_JOBS``;
        3. backend default (all cores for ``process``).

    Steps 3-5 and the jobs order are the ``schedule_backend`` and
    ``schedule_jobs`` rows of :mod:`repro.settings`.
    """
    if backend is None and jobs is not None and jobs > 1:
        backend = "process"
    backend = resolve("schedule_backend", backend)
    if backend not in SETTINGS["schedule_backend"].choices:
        raise ValueError(
            f"unknown schedule backend {backend!r}; "
            "expected 'serial' or 'process'"
        )
    return backend, resolve("schedule_jobs", jobs)


def create_engine(
    backend: Optional[str] = None,
    jobs: Optional[int] = None,
) -> ScheduleEngine:
    """Build a schedule engine from explicit settings or the environment
    (see :func:`resolve_schedule_backend` for the resolution order)."""
    backend, jobs = resolve_schedule_backend(backend, jobs)
    if backend == "serial":
        return SerialScheduleEngine()
    return ProcessScheduleEngine(jobs=jobs)
