"""``repro serve`` — a long-lived analysis daemon over :mod:`repro.api`.

The CLI pays the full cold-start bill on every invocation: interpreter
boot, schedule-engine process-pool fork, sqlite cache open.  For a
sustained request stream that cost dominates (§VI of the paper measures
analyses in the tens-to-hundreds of milliseconds once warm).  This
module keeps one process alive that fronts :class:`repro.api.AnalysisSession`
with three serving-side mechanisms:

**Shared warm state.**  One schedule-engine process pool (the
module-global pool in :mod:`repro.core.schedule_engine`, pre-forked via
:func:`~repro.core.schedule_engine.warm_shared_pool` at startup) and one
read-write :class:`~repro.cache.store.AnalysisCache` handle stay alive
across all requests.  Worker threads construct a fresh, cheap
``AnalysisSession`` per request and *borrow* the shared cache through the
session's ``cache=`` injection parameter — sessions never open or close
per-request sqlite handles.

**Request coalescing.**  In-flight duplicates are folded by the exact
persistent-cache key: module/workload digest × config fingerprint (the
per-loop component of the cache key is derived from the module, which
the digest already fixes).  N concurrent identical submissions block on
one analysis and all receive *byte-identical* response bodies — the
leader serialises the report JSON once and every follower is handed the
same bytes.  Followers are marked with an ``X-Repro-Coalesced: 1``
response header (a header, not a body field, so the body stays
identical).  A duplicate is reserved synchronously on the event loop
under a source-text key before the compile round-trip, then re-keyed by
module digest once compiled, so the check-then-reserve window is zero.

**Admission control.**  A bounded priority queue (lower value = sooner;
ties FIFO) sits in front of the worker threads.  When the pending count
reaches the configured depth, single-shot requests are rejected
immediately with ``429 Too Many Requests`` plus a ``Retry-After`` hint
estimated from the rolling mean request duration; streaming batch
requests instead *wait* for capacity — the open connection is its own
back-pressure.

Endpoints (HTTP/1.1, one request per connection)::

    POST /v1/analyze   {"source": ..., "config": {...}, "priority": n}
    POST /v1/detect    same body; adds baseline-detector verdicts
    POST /v1/batch     {"programs": [...], "fail_fast": bool} -> JSONL
    GET  /healthz      liveness + queue/pool introspection
    GET  /metrics      OpenMetrics exposition of the server registry

``GET /metrics`` is the ten-line adapter promised by
:mod:`repro.obs.export`: the server owns a private, lock-guarded
:class:`~repro.obs.metrics.MetricsRegistry` (the *global* obs context
stays disabled — its tracer keeps one unlocked span stack, which
concurrent request threads would tangle) and the endpoint is literally
``render_openmetrics(registry)`` behind a gauge refresh.

Every served request lands one run-ledger row (kind ``serve-analyze`` /
``serve-detect``) so ``repro stats`` tracks server-side trends; inner
sessions run with ``ledger_dir="off"`` so rows are never double-counted.

Stdlib-only by design, like the rest of the tree.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.api import AnalysisConfig, AnalysisSession
from repro.cache import open_cache
from repro.cache.keys import module_workload_digest
from repro.core.schedule_engine import (
    engine_queue_depth,
    shared_pool_jobs,
    warm_shared_pool,
)
from repro.lang.errors import MiniCError
from repro.obs.export import render_openmetrics
from repro.obs.ledger import RunLedger
from repro.obs.metrics import MetricsRegistry
from repro.settings import SETTINGS, resolve

__all__ = [
    "REQUEST_CONFIG_FIELDS",
    "AnalysisServer",
    "ServeConfig",
    "ServeClient",
    "resolve_serve_config",
    "serving",
]

# -- configuration ------------------------------------------------------------

#: :class:`AnalysisConfig` fields a request body's ``config`` object may
#: override.  Everything else — backend, jobs, exec backend, cache and
#: ledger wiring — is server policy, fixed at startup.
REQUEST_CONFIG_FIELDS = (
    "entry",
    "args",
    "rtol",
    "liveout_policy",
    "static_filter",
    "max_steps",
    "schedules",
    "n_random_schedules",
    "schedule_seed",
    "candidate_labels",
    "specs",
    "tiering",
    "max_pipeline_stages",
)

#: Request bodies past this size are refused with 413.
MAX_BODY_BYTES = 32 * 1024 * 1024


@dataclass(frozen=True)
class ServeConfig:
    """Resolved daemon knobs (see :func:`resolve_serve_config`)."""

    host: str = SETTINGS["serve_host"].default
    port: int = SETTINGS["serve_port"].default
    queue_depth: int = SETTINGS["serve_queue_depth"].default
    workers: int = SETTINGS["serve_workers"].default
    default_priority: int = SETTINGS["serve_priority"].default

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")


def resolve_serve_config(
    host: Optional[str] = None,
    port: Optional[int] = None,
    queue_depth: Optional[int] = None,
    workers: Optional[int] = None,
    default_priority: Optional[int] = None,
    environ: Optional[Dict[str, str]] = None,
) -> ServeConfig:
    """Serve knobs: each explicit argument (CLI flag) beats its
    environment variable (the ``serve_*`` rows of
    :mod:`repro.settings`), which beats the default.  ``environ``
    replaces the process environment (for tests)."""
    return ServeConfig(
        host=resolve("serve_host", host, environ),
        port=resolve("serve_port", port, environ),
        queue_depth=resolve("serve_queue_depth", queue_depth, environ),
        workers=resolve("serve_workers", workers, environ),
        default_priority=resolve("serve_priority", default_priority, environ),
    )


# -- request plumbing ---------------------------------------------------------

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

_JSON = "application/json"
_NDJSON = "application/x-ndjson"
_OPENMETRICS = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)


def _json_bytes(payload: Dict[str, object]) -> bytes:
    """Canonical response serialisation — deterministic bytes, so a
    coalesced follower's body is bit-for-bit the leader's."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


class _Flight:
    """One in-flight analysis that duplicates can join."""

    __slots__ = ("future", "joiners", "keys")

    def __init__(self, future: "asyncio.Future") -> None:
        self.future = future
        self.joiners = 0
        #: every coalescing-map key pointing at this flight.
        self.keys: List[Tuple] = []


@dataclass
class _Job:
    """Admitted unit of work handed to a worker thread."""

    kind: str
    name: str
    source: str
    module: object
    digest: str
    fingerprint: str
    config: AnalysisConfig
    flight: _Flight = field(repr=False, default=None)


class AnalysisServer:
    """The daemon: asyncio front end, worker-thread analysis back end.

    ``base`` is the server-wide :class:`AnalysisConfig` (backend, jobs,
    exec backend, cache and ledger wiring); request bodies may override
    only :data:`REQUEST_CONFIG_FIELDS`.  Construct, then either call
    :meth:`run` (blocking; the CLI path) or wrap in :func:`serving` to
    host it on a background thread (the test/benchmark path).
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        base: Optional[AnalysisConfig] = None,
    ) -> None:
        self.config = config or resolve_serve_config()
        self.base = base or AnalysisConfig()
        self.port: Optional[int] = None  # actual bound port (for port 0)
        self.ready = threading.Event()

        self.metrics = MetricsRegistry()
        self._metrics_lock = threading.Lock()
        self._avg_ms = 0.0  # EWMA of request wall time, feeds Retry-After

        # Shared warm state: one rw cache handle for the process.  The
        # store is multi-thread safe (see cache/store.py); sessions
        # borrow it and never close it.
        resolved = self.base.resolved()
        self._cache = open_cache(resolved.cache_dir, mode=self.base.cache_mode)
        self._ledger_dir = resolved.ledger_dir
        # Per-request session config: ledger rows are recorded by the
        # server itself (kind="serve-*"), never by inner sessions; a
        # disabled server cache disables per-request opens too.
        self._job_base = self.base.replace(
            ledger_dir="off",
            cache_mode=self.base.cache_mode if self._cache else "off",
        )

        # +2 so compile/digest round-trips are not starved by the
        # `workers` long-running analysis slots.
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers + 2,
            thread_name_prefix="repro-serve",
        )

        # Event-loop state, created in _serve() on the serving thread.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional[asyncio.PriorityQueue] = None
        self._slots: Optional[asyncio.Condition] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._flights: Dict[Tuple, _Flight] = {}
        self._pending = 0
        self._seq = 0
        self._started_at = time.time()
        self._error: Optional[BaseException] = None

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> None:
        """Serve until :meth:`stop` (or loop cancellation).  Blocking."""
        try:
            asyncio.run(self._serve())
        except BaseException as exc:
            self._error = exc
            raise
        finally:
            self.ready.set()  # unblock serving() even on startup failure

    def stop(self) -> None:
        """Thread-safe shutdown request."""
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None:
            loop.call_soon_threadsafe(shutdown.set)

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.PriorityQueue()
        self._slots = asyncio.Condition()
        self._shutdown = asyncio.Event()
        self._started_at = time.time()

        resolved = self.base.resolved()
        if resolved.backend == "process":
            # Pre-fork the shared engine pool so the first request does
            # not pay the fork+import bill.
            await self._loop.run_in_executor(
                None, warm_shared_pool, resolved.jobs
            )

        workers = [
            asyncio.create_task(self._worker())
            for _ in range(self.config.workers)
        ]
        server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        self.ready.set()
        try:
            async with server:
                await self._shutdown.wait()
        finally:
            for task in workers:
                task.cancel()
            self._executor.shutdown(wait=False, cancel_futures=True)
            if self._cache is not None:
                self._cache.close()

    # -- metrics helpers (server-owned registry; global obs stays off) ----

    def _count(self, name: str, n: int = 1) -> None:
        with self._metrics_lock:
            self.metrics.counter(name).inc(n)

    def render_metrics(self) -> str:
        """The ``GET /metrics`` adapter over ``render_openmetrics``."""
        with self._metrics_lock:
            gauges = self.metrics
            gauges.gauge("serve.queue_depth").set(self._pending)
            gauges.gauge("serve.queue_limit").set(self.config.queue_depth)
            gauges.gauge("serve.engine_queue_depth").set(engine_queue_depth())
            gauges.gauge("serve.uptime_seconds").set(
                time.time() - self._started_at
            )
            return render_openmetrics(gauges)

    def _retry_after(self) -> int:
        """Seconds a 429'd client should wait: queue drain estimate from
        the rolling mean request duration."""
        with self._metrics_lock:
            avg_ms = self._avg_ms
        per_slot = max(avg_ms, 50.0) / 1000.0
        waves = (self._pending + 1) / max(1, self.config.workers)
        return max(1, int(math.ceil(per_slot * waves)))

    def _note_duration(self, wall_ms: float) -> None:
        with self._metrics_lock:
            if self._avg_ms <= 0.0:
                self._avg_ms = wall_ms
            else:
                self._avg_ms = 0.8 * self._avg_ms + 0.2 * wall_ms
            self.metrics.histogram("serve.request_wall_ms").observe(wall_ms)

    def healthz(self) -> Dict[str, object]:
        with self._metrics_lock:
            served = self.metrics.value("serve.analyses", 0)
            coalesced = self.metrics.value("serve.coalesced", 0)
            rejected = self.metrics.value("serve.rejected", 0)
        return {
            "status": "ok",
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "queue_depth": self._pending,
            "queue_limit": self.config.queue_depth,
            "workers": self.config.workers,
            "inflight_keys": len(self._flights),
            "engine_queue_depth": engine_queue_depth(),
            "pool_jobs": shared_pool_jobs(),
            "analyses": served,
            "coalesced": coalesced,
            "rejected": rejected,
            "cache": bool(self._cache),
        }

    # -- admission ---------------------------------------------------------

    async def _admit(self, wait: bool) -> bool:
        async with self._slots:
            if not wait and self._pending >= self.config.queue_depth:
                return False
            while self._pending >= self.config.queue_depth:
                await self._slots.wait()
            self._pending += 1
            return True

    async def _release_slot(self) -> None:
        async with self._slots:
            self._pending -= 1
            self._slots.notify_all()

    async def _land(self, flight: _Flight, status: int, body: bytes) -> None:
        """Retire ``flight``: drop its coalescing keys, free its admission
        slot, and hand ``(status, body)`` to every request waiting on it."""
        for key in flight.keys:
            self._flights.pop(key, None)
        await self._release_slot()
        if not flight.future.done():
            flight.future.set_result((status, body))

    # -- the worker loop ---------------------------------------------------

    async def _worker(self) -> None:
        while True:
            _priority, _seq, job = await self._queue.get()
            try:
                status, body = await self._loop.run_in_executor(
                    self._executor, self._execute_job, job
                )
            except Exception as exc:  # executor torn down, etc.
                status = 500
                body = _json_bytes({"status": "error", "error": repr(exc)})
            await self._land(job.flight, status, body)

    def _execute_job(self, job: _Job) -> Tuple[int, bytes]:
        """Worker-thread body: run the analysis, serialise once."""
        start = time.perf_counter()
        report = None
        try:
            with AnalysisSession(job.config, cache=self._cache) as session:
                if job.kind == "detect":
                    outcome = session.detect(job.source, source_path=job.name)
                    report = outcome.report
                    payload = {
                        "kind": "detect",
                        "module_digest": job.digest,
                        "fingerprint": job.fingerprint,
                        "report": report.to_dict(),
                        "baselines": outcome.baseline_verdicts(),
                        "detectors": list(outcome.detector_names),
                    }
                else:
                    report = session.analyzer(
                        job.module,
                        source_text=job.source,
                        source_path=job.name,
                    ).analyze()
                    payload = {
                        "kind": "analyze",
                        "module_digest": job.digest,
                        "fingerprint": job.fingerprint,
                        "report": report.to_dict(),
                    }
            status = 200
            self._count("serve.analyses")
        except MiniCError as exc:
            status = 400
            payload = {"status": "parse-error", "error": str(exc)}
        except Exception as exc:
            status = 422
            payload = {"status": "fault", "error": repr(exc)}
            self._count("serve.faults")
        wall_ms = (time.perf_counter() - start) * 1000.0
        self._note_duration(wall_ms)
        if report is not None:
            self._record_ledger(job, report, wall_ms)
        return status, _json_bytes(payload)

    def _record_ledger(self, job: _Job, report, wall_ms: float) -> None:
        """One server-side ledger row per served analysis.

        Opened per record so each worker thread gets its own sqlite
        handle (WAL keeps concurrent recorders off each other's locks).
        Best-effort: ledger trouble must never fail a request.
        """
        if self._ledger_dir is None:
            return
        try:
            with RunLedger(self._ledger_dir) as ledger:
                ledger.record(
                    kind=f"serve-{job.kind}",
                    program=job.name,
                    fingerprint=job.fingerprint,
                    wall_ms=wall_ms,
                    extra={"module_digest": job.digest},
                    **report.ledger_columns(),
                )
        except Exception:
            pass

    # -- submission (coalescing + admission) -------------------------------

    def _effective_config(self, payload: Dict[str, object]) -> AnalysisConfig:
        overrides = dict(payload.get("config") or {})
        for key in ("entry", "args"):  # top-level convenience aliases
            if payload.get(key) is not None:
                overrides[key] = payload[key]
        unknown = sorted(set(overrides) - set(REQUEST_CONFIG_FIELDS))
        if unknown:
            raise ValueError(
                f"config fields not overridable per request: {unknown}"
            )
        return self._job_base.replace(**overrides)

    async def _join_flight(self, flight: _Flight) -> Tuple[int, bytes, List]:
        self._count("serve.coalesced")
        flight.joiners += 1
        status, body = await asyncio.shield(flight.future)
        return status, body, [("X-Repro-Coalesced", "1")]

    async def _submit(
        self, kind: str, payload: Dict[str, object], wait: bool
    ) -> Tuple[int, bytes, List[Tuple[str, str]]]:
        """Route one analysis request through coalescing and admission.

        Returns ``(status, body bytes, extra headers)``.
        """
        source = payload.get("source")
        if not isinstance(source, str) or not source.strip():
            return 400, _json_bytes({"error": "missing program source"}), []
        try:
            config = self._effective_config(payload)
            priority = int(
                payload.get("priority", self.config.default_priority)
            )
        except (TypeError, ValueError) as exc:
            return 400, _json_bytes({"error": str(exc)}), []

        fingerprint = config.fingerprint()
        # Synchronous reservation under the source-text key: no await
        # between lookup and insert, so concurrent duplicates can never
        # both become leaders.
        src_digest = hashlib.sha256(
            "\x00".join(
                [source, config.entry, repr(list(config.args))]
            ).encode("utf-8")
        ).hexdigest()
        skey = ("src", kind, src_digest, fingerprint)
        flight = self._flights.get(skey)
        if flight is not None:
            return await self._join_flight(flight)

        if not await self._admit(wait):
            self._count("serve.rejected")
            retry = self._retry_after()
            body = _json_bytes(
                {
                    "error": "admission queue full",
                    "queue_depth": self._pending,
                    "queue_limit": self.config.queue_depth,
                    "retry_after_seconds": retry,
                }
            )
            return 429, body, [("Retry-After", str(retry))]

        flight = _Flight(self._loop.create_future())
        flight.keys.append(skey)
        self._flights[skey] = flight
        try:
            from repro.driver import compile_program

            try:
                module = await self._loop.run_in_executor(
                    self._executor, compile_program, source
                )
            except MiniCError as exc:
                status = 400
                body = _json_bytes(
                    {"status": "parse-error", "error": str(exc)}
                )
                await self._land(flight, status, body)
                return status, body, []

            digest = module_workload_digest(
                module, config.entry, list(config.args)
            )
            dkey = ("mod", kind, digest, fingerprint)
            existing = self._flights.get(dkey)
            if existing is not None and existing is not flight:
                # Same module via different source text: join the
                # earlier flight, then land ours with its answer.  Until
                # then ours keeps its admission slot and its source key,
                # so duplicates of our source text join ours.
                joined = await self._join_flight(existing)
                await self._land(flight, joined[0], joined[1])
                return joined
            flight.keys.append(dkey)
            self._flights[dkey] = flight

            job = _Job(
                kind=kind,
                name=str(payload.get("name") or digest[:12]),
                source=source,
                module=module,
                digest=digest,
                fingerprint=fingerprint,
                config=config,
                flight=flight,
            )
            self._seq += 1
            self._queue.put_nowait((priority, self._seq, job))
        except Exception as exc:
            status = 500
            body = _json_bytes({"status": "error", "error": repr(exc)})
            await self._land(flight, status, body)
            return status, body, []

        status, body = await asyncio.shield(flight.future)
        return status, body, [("X-Repro-Module-Digest", job.digest)]

    # -- HTTP front end ----------------------------------------------------

    async def _read_request(self, reader):
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ValueError(f"malformed request line: {line!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length") or 0)
        if length > MAX_BODY_BYTES:
            return method, target, headers, None  # signal 413
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _send(
        self,
        writer,
        status: int,
        body: bytes,
        content_type: str = _JSON,
        extra: Sequence[Tuple[str, str]] = (),
    ) -> None:
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        head.extend(f"{name}: {value}" for name, value in extra)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()
        self._count(f"serve.responses.{status}")

    async def _handle_conn(self, reader, writer) -> None:
        try:
            try:
                request = await self._read_request(reader)
            except (ValueError, asyncio.IncompleteReadError) as exc:
                await self._send(
                    writer, 400, _json_bytes({"error": str(exc)})
                )
                return
            if request is None:
                return
            method, target, _headers, body = request
            if body is None:
                await self._send(
                    writer, 413, _json_bytes({"error": "body too large"})
                )
                return
            await self._route(method, target.split("?", 1)[0], body, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass
        except Exception as exc:
            with contextlib.suppress(Exception):
                await self._send(
                    writer, 500, _json_bytes({"error": repr(exc)})
                )
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _route(self, method: str, path: str, body: bytes, writer):
        if path == "/healthz" and method == "GET":
            self._count("serve.requests.healthz")
            await self._send(writer, 200, _json_bytes(self.healthz()))
            return
        if path == "/metrics" and method == "GET":
            self._count("serve.requests.metrics")
            text = self.render_metrics().encode("utf-8")
            await self._send(writer, 200, text, content_type=_OPENMETRICS)
            return
        if path in ("/v1/analyze", "/v1/detect", "/v1/batch"):
            endpoint = path.rsplit("/", 1)[1]
            if method != "POST":
                await self._send(
                    writer, 405, _json_bytes({"error": "POST required"})
                )
                return
            self._count(f"serve.requests.{endpoint}")
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
                if not isinstance(payload, dict):
                    raise ValueError("request body must be a JSON object")
            except (ValueError, UnicodeDecodeError) as exc:
                await self._send(
                    writer,
                    400,
                    _json_bytes({"error": f"bad request body: {exc}"}),
                )
                return
            if endpoint == "batch":
                await self._respond_batch(payload, writer)
            else:
                status, resp, extra = await self._submit(
                    endpoint, payload, wait=False
                )
                await self._send(writer, status, resp, extra=extra)
            return
        await self._send(
            writer, 404, _json_bytes({"error": f"no such endpoint {path}"})
        )

    # -- batch streaming ---------------------------------------------------

    @staticmethod
    def _outcome_line(
        index: int,
        name: str,
        status: int,
        body: bytes,
        include_report: bool,
    ) -> Dict[str, object]:
        try:
            data = json.loads(body.decode("utf-8"))
        except ValueError:
            data = {}
        line: Dict[str, object] = {
            "type": "result",
            "index": index,
            "name": name,
        }
        if status == 200:
            report = data.get("report", {})
            counts = report.get("verdict_counts", {})
            line["status"] = "ok"
            line["loops"] = len(report.get("loops", []))
            line["commutative"] = int(counts.get("commutative", 0)) + int(
                counts.get("commutative-vacuous", 0)
            )
            line["schedule_executions"] = report.get("schedule_executions", 0)
            line["verdicts"] = counts
            line["module_digest"] = data.get("module_digest")
            if include_report:
                line["report"] = report
        else:
            line["status"] = data.get("status", "error")
            line["error"] = data.get("error", f"HTTP {status}")
        return line

    async def _respond_batch(self, payload: Dict[str, object], writer):
        programs = payload.get("programs")
        if not isinstance(programs, list) or not programs:
            await self._send(
                writer,
                400,
                _json_bytes({"error": "programs must be a non-empty list"}),
            )
            return
        fail_fast = bool(payload.get("fail_fast"))
        include_reports = bool(payload.get("reports"))
        base_config = dict(payload.get("config") or {})
        try:
            batch_priority = int(
                payload.get("priority", self.config.default_priority + 10)
            )
        except (TypeError, ValueError):
            await self._send(
                writer, 400, _json_bytes({"error": "priority must be int"})
            )
            return

        def sub_payload(program) -> Dict[str, object]:
            if not isinstance(program, dict):
                return {"source": None}
            merged = dict(base_config)
            if program.get("entry") is not None:
                merged["entry"] = program["entry"]
            if program.get("args") is not None:
                merged["args"] = program["args"]
            return {
                "source": program.get("source"),
                "name": program.get("name"),
                "priority": program.get("priority", batch_priority),
                "config": merged,
            }

        head = (
            "HTTP/1.1 200 OK\r\n"
            f"Content-Type: {_NDJSON}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        self._count("serve.responses.200")

        started = time.perf_counter()
        status_counts: Dict[str, int] = {}

        async def emit(line: Dict[str, object]) -> None:
            status_counts[line["status"]] = (
                status_counts.get(line["status"], 0) + 1
            )
            writer.write(
                json.dumps(line, sort_keys=True).encode("utf-8") + b"\n"
            )
            await writer.drain()

        def name_of(index: int, program) -> str:
            if isinstance(program, dict) and program.get("name"):
                return str(program["name"])
            return f"<program {index}>"

        self._count("serve.batch.programs", len(programs))
        if fail_fast:
            failed_at = None
            for index, program in enumerate(programs):
                if failed_at is not None:
                    await emit(
                        {
                            "type": "result",
                            "index": index,
                            "name": name_of(index, program),
                            "status": "skipped",
                            "error": (
                                "skipped by fail-fast after "
                                f"{name_of(failed_at, programs[failed_at])}"
                            ),
                        }
                    )
                    continue
                status, body, _ = await self._submit(
                    "analyze", sub_payload(program), wait=True
                )
                await emit(
                    self._outcome_line(
                        index,
                        name_of(index, program),
                        status,
                        body,
                        include_reports,
                    )
                )
                if status != 200:
                    failed_at = index
        else:
            tasks = [
                asyncio.create_task(
                    self._submit("analyze", sub_payload(program), wait=True)
                )
                for program in programs
            ]
            for index, task in enumerate(tasks):
                status, body, _ = await task
                await emit(
                    self._outcome_line(
                        index,
                        name_of(index, programs[index]),
                        status,
                        body,
                        include_reports,
                    )
                )

        ok = status_counts.get("ok", 0)
        await emit_summary(
            writer,
            {
                "type": "summary",
                "programs": len(programs),
                "ok": ok,
                "failed": len(programs) - ok,
                "status_counts": status_counts,
                "fail_fast": fail_fast,
                "wall_ms": round((time.perf_counter() - started) * 1000.0, 3),
            },
        )


async def emit_summary(writer, summary: Dict[str, object]) -> None:
    writer.write(json.dumps(summary, sort_keys=True).encode("utf-8") + b"\n")
    await writer.drain()


# -- hosting helpers ----------------------------------------------------------


@contextlib.contextmanager
def serving(server: AnalysisServer, timeout: float = 60.0):
    """Host ``server`` on a daemon thread for the ``with`` body.

    Yields the server once it is accepting connections (``server.port``
    is the actual bound port, so ``port=0`` picks a free one).  Used by
    tests, benchmarks, and anything embedding the daemon.
    """
    thread = threading.Thread(
        target=server.run, name="repro-serve", daemon=True
    )
    thread.start()
    if not server.ready.wait(timeout):
        server.stop()
        raise RuntimeError("repro serve failed to start within timeout")
    if server._error is not None:
        raise RuntimeError("repro serve failed to start") from server._error
    try:
        yield server
    finally:
        server.stop()
        thread.join(timeout)


# -- client -------------------------------------------------------------------


class ServeClient:
    """Minimal stdlib client for the daemon (one connection per call).

    Powers ``repro batch --server`` and the test suite; also a usable
    example of the wire protocol.
    """

    def __init__(self, url: str, timeout: float = 600.0):
        from urllib.parse import urlsplit

        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(f"only http:// URLs are supported: {url!r}")
        self.host = parts.hostname or ServeConfig.host
        self.port = parts.port or ServeConfig.port
        self.timeout = timeout

    def _connection(self):
        import http.client

        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        conn = self._connection()
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = _JSON
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
            return resp.status, dict(resp.getheaders()), data
        finally:
            conn.close()

    def request_json(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]] = None,
    ) -> Tuple[int, Dict[str, str], Dict[str, object]]:
        status, headers, data = self.request(method, path, payload)
        return status, headers, json.loads(data.decode("utf-8"))

    # -- convenience wrappers ---------------------------------------------

    def healthz(self) -> Dict[str, object]:
        status, _, data = self.request_json("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"healthz returned {status}")
        return data

    def metrics(self) -> str:
        status, _, data = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"metrics returned {status}")
        return data.decode("utf-8")

    def analyze(
        self,
        source: str,
        config: Optional[Dict[str, object]] = None,
        name: Optional[str] = None,
        priority: Optional[int] = None,
        kind: str = "analyze",
    ) -> Tuple[int, Dict[str, str], Dict[str, object]]:
        payload: Dict[str, object] = {"source": source}
        if config:
            payload["config"] = config
        if name:
            payload["name"] = name
        if priority is not None:
            payload["priority"] = priority
        return self.request_json("POST", f"/v1/{kind}", payload)

    def batch(
        self,
        programs: Iterable[Dict[str, object]],
        config: Optional[Dict[str, object]] = None,
        fail_fast: bool = False,
        priority: Optional[int] = None,
        reports: bool = False,
    ) -> Iterator[Dict[str, object]]:
        """Stream JSONL result lines (dicts) from ``POST /v1/batch``."""
        payload: Dict[str, object] = {
            "programs": list(programs),
            "fail_fast": fail_fast,
            "reports": reports,
        }
        if config:
            payload["config"] = config
        if priority is not None:
            payload["priority"] = priority
        conn = self._connection()
        try:
            conn.request(
                "POST",
                "/v1/batch",
                body=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": _JSON},
            )
            resp = conn.getresponse()
            if resp.status != 200:
                raise RuntimeError(
                    f"batch returned {resp.status}: "
                    f"{resp.read().decode('utf-8', 'replace')}"
                )
            while True:
                raw = resp.readline()
                if not raw:
                    break
                raw = raw.strip()
                if raw:
                    yield json.loads(raw.decode("utf-8"))
        finally:
            conn.close()
