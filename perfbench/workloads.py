"""The benchmark's four workloads and the suite runner they share.

Every workload analyses the 24 PLDS+NPB programs of
``repro.benchsuite`` with each program's own ``rtol`` and live-out
policy.  A *pass* (a *round* for the daemon) is one analysis of every
program, in an order drawn from the run's seed.

* ``suite-cold`` — paper default schedules, static filter on, no
  analysis cache, and an empty codegen artifact store at the start of
  every pass: a user's first analysis of a program, so every stage
  works and codegen compiles are paid.
* ``suite-warm`` — the same programs with the analysis cache and the
  artifact store filled during set-up, tiering on: re-analysis of
  unchanged programs.  The dynamic stage is cache lookups, so the
  frontend, profile, static, golden and tiering stages are the cost.
* ``replay-heavy`` — static filter off and four seeded random
  schedules besides identity and reverse, artifacts warmed in set-up:
  the dynamic stage (executor, snapshot capture/digest/compare, engine
  dispatch) is ~70% of the stage time, profile and golden ~30%.
* ``serve-mixed`` — a ``repro serve`` daemon driven by a closed loop of
  two client threads; 75% of requests use the default config (dynamic
  stage served from the daemon's cache) and 25% a fresh
  ``schedule_seed`` (full analysis plus cache store).  The only
  workload through serve's admission, queueing and shared-cache path.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import queue
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api import AnalysisConfig, AnalysisSession
from repro.benchsuite import ALL_BENCHMARKS
from repro.cache import AnalysisCache
from repro.core.report import (
    COMMUTATIVE,
    COMMUTATIVE_VACUOUS,
    EXCLUDED_IO,
    ITERATOR_ONLY,
    NOT_EXERCISED,
    UNTESTABLE,
)
from repro.core.schedules import ScheduleConfig
from repro.driver import compile_program
from repro.interp.codegen import CODEGEN_CACHE_ENV
from repro.serve import ServeClient

import tracing

#: Loops the Table IV rule does not count against DCA.
_UNTESTED = frozenset({EXCLUDED_IO, ITERATOR_ONLY, NOT_EXERCISED, UNTESTABLE})
_COMMUTATIVE = frozenset({COMMUTATIVE, COMMUTATIVE_VACUOUS})

REPLAY_RANDOM_SCHEDULES = 4
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
#: Share of daemon requests that carry a fresh ``schedule_seed``.
FRESH_SHARE = 0.25
REQUEST_TIMEOUT_S = 120.0

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
GOLDENS = os.path.join(PERFBENCH, "goldens", "bench_verdicts.json")


# -- verdicts -------------------------------------------------------------------


def report_verdicts(report) -> Dict[str, str]:
    """label -> verdict, ``verdict/TIER`` when tiering ran.  Accepts a
    :class:`DcaReport` or a daemon response's schema-1 report dict."""
    if isinstance(report, dict):
        return {label: loop["verdict"] for label, loop in report["loops"].items()}
    return {
        label: r.verdict if r.tier is None else f"{r.verdict}/{r.tier}"
        for label, r in report.results.items()
    }


def wrong_verdicts(bench, verdicts: Dict[str, str], golden=None) -> List[str]:
    """Every wrong result in one program's verdict map.

    Three kinds: false positives and negatives against the expert
    ``ground_truth`` (the Table IV rule: untested loops are not false
    negatives), a PLDS kernel not found commutative, and any difference
    from the committed golden map when one applies.
    """
    values = {label: v.split("/")[0] for label, v in verdicts.items()}
    commutative = {l for l, v in values.items() if v in _COMMUTATIVE}
    untested = {l for l, v in values.items() if v in _UNTESTED}
    parallel = {l for l, v in bench.ground_truth.items() if v}
    serial = set(bench.ground_truth) - parallel
    problems = [
        f"{bench.name}: false positive {label}"
        for label in sorted(commutative & serial)
    ]
    problems += [
        f"{bench.name}: false negative {label}"
        for label in sorted(parallel - commutative - untested)
    ]
    if bench.table2 and bench.table2.kernel_label not in commutative:
        problems.append(f"{bench.name}: kernel {bench.table2.kernel_label} missed")
    if golden is not None:
        for label in sorted(set(golden) | set(verdicts)):
            if golden.get(label) != verdicts.get(label):
                problems.append(
                    f"{bench.name}: {label} is {verdicts.get(label)}, "
                    f"golden {golden.get(label)}"
                )
    return problems


def load_goldens() -> Dict[str, Dict[str, Dict[str, str]]]:
    with open(GOLDENS) as fh:
        return json.load(fh)


# -- the suite runner ---------------------------------------------------------------


@dataclass
class PassResult:
    """One pass (or daemon round) over the selected programs."""

    wall_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    wrong: List[str] = field(default_factory=list)
    #: Serialized verdict provenance over the pass (static vs dynamic).
    decided_by: Counter = field(default_factory=Counter)
    #: Sum of every report's ``stage_times_ms``.
    stage_ms: Counter = field(default_factory=Counter)


class SuiteRunner:
    """Analyses programs one at a time through :class:`AnalysisSession`,
    timing each ``analyze`` call (compile included)."""

    def __init__(self, benchmarks, config: AnalysisConfig, cache=None):
        self.benchmarks = list(benchmarks)
        self.configs = {
            b.name: config.replace(rtol=b.rtol, liveout_policy=b.liveout_policy)
            for b in self.benchmarks
        }
        self.cache = cache

    def analyze(self, bench):
        with AnalysisSession(self.configs[bench.name], cache=self.cache) as session:
            return session.analyze(bench.source, source_path=bench.name)

    def run_pass(self, order, goldens=None, tracer=None) -> PassResult:
        """Analyse ``order``; check each report against ``goldens``
        (program -> verdict map) when given, else ground truth only.

        Each analysis starts from a collected heap, as in a fresh
        ``repro analyze`` process, with the collection outside the
        timer: otherwise whichever program runs next pays for the
        garbage of the ones before it, and its latency swings by up to
        3x with the seeded order.  Collections the analysis itself
        triggers are timed.  ``wall_s`` is the sum of the analyses.
        """
        result = PassResult()
        for bench in order:
            result.attempted += 1
            gc.collect()
            begin = time.perf_counter()
            try:
                if tracer is None:
                    report = self.analyze(bench)
                else:
                    report = tracer.wrap(
                        "session", self.analyze, info=lambda a, r: a[0].name
                    )(bench)
            except Exception as exc:  # recorded as a failed analysis
                result.failures.append(f"{bench.name}: {exc!r}")
                continue
            result.latencies_ms.append((time.perf_counter() - begin) * 1000.0)
            golden = goldens.get(bench.name) if goldens is not None else None
            result.wrong += wrong_verdicts(bench, report_verdicts(report), golden)
            result.decided_by.update(report.decided_by_counts(serialized=True))
            result.stage_ms.update(report.stage_times_ms)
        result.wall_s = sum(result.latencies_ms) / 1000.0
        return result


def drop_exec_memos() -> None:
    """Forget every in-process compiled program, so the next analysis
    compiles (or loads artifacts) as a fresh process would."""
    import repro.core.schedule_engine as engine
    import repro.interp.codegen as codegen
    import repro.interp.compiler as compiler

    for memo in (
        codegen._MODULE_CACHE,
        compiler._MODULE_CACHE,
        engine._CODEGEN_BLOB_CACHE,
        engine._COMPILED_BLOB_CACHE,
    ):
        memo.clear()


def select_benchmarks(smoke: bool):
    """The whole suite, or its two smallest programs for the smoke run."""
    if not smoke:
        return list(ALL_BENCHMARKS)
    return sorted(ALL_BENCHMARKS, key=lambda b: len(b.source))[:2]


def suite_config(workload: str, seed: int, exec_backend: str) -> AnalysisConfig:
    """The analysis config a suite workload measures."""
    config = AnalysisConfig(
        backend="serial",
        exec_backend=exec_backend,
        specs=False,
        tiering=False,
        cache_mode="off",
        ledger_dir="off",
    )
    if workload == "suite-warm":
        return config.replace(tiering=True)
    if workload == "replay-heavy":
        return config.replace(
            static_filter=False,
            n_random_schedules=REPLAY_RANDOM_SCHEDULES,
            schedule_seed=random.Random(f"replay:{seed}").randrange(1 << 20),
        )
    return config


# -- workloads ----------------------------------------------------------------------


class SuiteWorkload:
    """``suite-cold``, ``suite-warm`` or ``replay-heavy`` in this process.

    :meth:`setup` prepares private artifact (and, for ``suite-warm``,
    analysis-cache) directories under ``workdir``; each call starts
    over, so set-up can be timed more than once.
    """

    def __init__(self, name, seed, exec_backend, benchmarks, workdir):
        self.name = name
        self.benchmarks = benchmarks
        self.workdir = workdir
        self.config = suite_config(name, seed, exec_backend)
        self.goldens = None
        if name in ("suite-cold", "suite-warm"):
            self.goldens = load_goldens()[name]
        self.dir: Optional[str] = None
        self.runner: Optional[SuiteRunner] = None

    @property
    def artifacts(self) -> str:
        return os.path.join(self.dir, "codegen")

    def setup(self) -> None:
        self.dir = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir)
        os.environ[CODEGEN_CACHE_ENV] = self.artifacts
        drop_exec_memos()
        # Load the suite: every source must compile before anything is
        # timed.
        for bench in self.benchmarks:
            compile_program(bench.source)
        cache = None
        if self.name == "suite-warm":
            cache = AnalysisCache(os.path.join(self.dir, "cache"))
        self.runner = SuiteRunner(self.benchmarks, self.config, cache)
        if self.name == "suite-cold":
            # One throwaway analysis of the smallest program finishes
            # lazy imports and first-call set-up; its artifacts are
            # dropped with every pass's.
            smallest = min(self.benchmarks, key=lambda b: len(b.source))
            warm = self.runner.run_pass([smallest])
        elif self.name == "suite-warm":
            warm = self.runner.run_pass(self.benchmarks)
        else:
            # Identity replays compile every test module the measured
            # schedules will execute.
            warm = SuiteRunner(
                self.benchmarks,
                self.config.replace(schedules=ScheduleConfig.identity_only()),
            ).run_pass(self.benchmarks)
        if warm.failures:
            raise RuntimeError(f"{self.name} set-up failed: {warm.failures}")

    def run_pass(self, rng: random.Random, tracer=None) -> PassResult:
        order = rng.sample(self.benchmarks, len(self.benchmarks))
        if self.name == "suite-cold":
            shutil.rmtree(self.artifacts, ignore_errors=True)
            drop_exec_memos()
        return self.runner.run_pass(order, self.goldens, tracer)

    def teardown(self) -> None:
        if self.runner is not None and self.runner.cache is not None:
            self.runner.cache.close()
        self.runner = None
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def daemon_env(artifacts: str) -> Dict[str, str]:
    """The environment without ``REPRO_*``, plus the checkout's sources
    and the daemon's private artifact store."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env[CODEGEN_CACHE_ENV] = artifacts
    return env


class ServeWorkload:
    """``serve-mixed``: a ``repro serve`` subprocess and a closed loop of
    :data:`SERVE_CLIENTS` client threads in this process.

    :meth:`setup` starts a daemon with private cache and artifact
    directories and posts every program once; with ``traced`` the
    daemon runs under :mod:`tracing` and writes its spans on exit.
    """

    def __init__(self, exec_backend, benchmarks, workdir, rounds_per_pass=1):
        self.name = "serve-mixed"
        self.exec_backend = exec_backend
        self.benchmarks = benchmarks
        self.workdir = workdir
        self.rounds_per_pass = rounds_per_pass
        self.goldens = load_goldens()["suite-cold"]
        self.traced = False
        self.spans: List[tracing.Span] = []
        self.dir: Optional[str] = None
        self.proc: Optional[subprocess.Popen] = None
        self.client: Optional[ServeClient] = None
        self._fresh_seeds = iter(range(1 << 20, 1 << 21, 2))

    @property
    def spans_path(self) -> str:
        return os.path.join(self.dir, "spans.json")

    def setup(self) -> None:
        self.dir = tempfile.mkdtemp(prefix="serve-mixed-", dir=self.workdir)
        port = _free_port()
        args = [
            "serve", "--host", "127.0.0.1", "--port", str(port),
            "--workers", str(SERVE_WORKERS),
            "--exec-backend", self.exec_backend,
            "--cache", os.path.join(self.dir, "cache"), "--no-ledger",
        ]
        if self.traced:
            command = [
                sys.executable, os.path.join(PERFBENCH, "tracing.py"),
                "--out", self.spans_path, "--",
            ] + args
        else:
            command = [sys.executable, "-m", "repro"] + args
        self.log = open(os.path.join(self.dir, "daemon.log"), "wb")
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=daemon_env(os.path.join(self.dir, "codegen")),
            stdin=subprocess.DEVNULL,
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        self.client = ServeClient(f"http://127.0.0.1:{port}", timeout=REQUEST_TIMEOUT_S)
        self._wait_healthy()
        warm = self._run_jobs([(b, None) for b in self.benchmarks])
        if warm.failures:
            raise RuntimeError(f"serve set-up failed: {warm.failures}")

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited: {self._log_text()}")
            try:
                self.client.healthz()
                return
            except OSError:
                time.sleep(0.02)
        raise RuntimeError("repro serve did not become healthy")

    def _log_text(self) -> str:
        with open(os.path.join(self.dir, "daemon.log"), "rb") as fh:
            return fh.read().decode("utf-8", "replace")[-2000:]

    def _post(self, bench, schedule_seed, result: PassResult, lock) -> None:
        config = {"rtol": bench.rtol, "liveout_policy": bench.liveout_policy}
        if schedule_seed is not None:
            config["schedule_seed"] = schedule_seed
        payload = {"source": bench.source, "name": bench.name, "config": config}
        begin = time.perf_counter()
        try:
            status, _headers, body = self.client.request(
                "POST", "/v1/analyze", payload
            )
        except (OSError, http.client.HTTPException) as exc:
            with lock:
                result.failures.append(f"{bench.name}: {exc!r}")
            return
        latency_ms = (time.perf_counter() - begin) * 1000.0
        if status != 200:
            with lock:
                result.failures.append(f"{bench.name}: HTTP {status}")
            return
        report = json.loads(body)["report"]
        golden = self.goldens.get(bench.name) if schedule_seed is None else None
        wrong = wrong_verdicts(bench, report_verdicts(report), golden)
        with lock:
            result.latencies_ms.append(latency_ms)
            result.wrong += wrong
            result.decided_by.update(report["decided_by"])

    def _run_jobs(self, jobs) -> PassResult:
        """Send ``jobs`` ((program, schedule_seed or None) pairs) from
        the client threads, each sending its next request when the
        previous one completes."""
        result = PassResult(attempted=len(jobs))
        lock = threading.Lock()
        pending: "queue.Queue" = queue.Queue()
        for job in jobs:
            pending.put(job)

        def client() -> None:
            while True:
                try:
                    bench, schedule_seed = pending.get_nowait()
                except queue.Empty:
                    return
                self._post(bench, schedule_seed, result, lock)

        threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(REQUEST_TIMEOUT_S * len(jobs))
            if thread.is_alive():
                raise RuntimeError("serve client thread hung")
        result.wall_s = time.perf_counter() - start
        return result

    def run_pass(self, rng: random.Random, tracer=None) -> PassResult:
        """``rounds_per_pass`` rounds, each every program once in a
        seeded order, with a seeded :data:`FRESH_SHARE` of them carrying
        a fresh ``schedule_seed``."""
        jobs = []
        for _ in range(self.rounds_per_pass):
            order = rng.sample(self.benchmarks, len(self.benchmarks))
            n_fresh = math.ceil(FRESH_SHARE * len(order))
            fresh = set(rng.sample(range(len(order)), n_fresh))
            jobs += [
                (bench, next(self._fresh_seeds) if i in fresh else None)
                for i, bench in enumerate(order)
            ]
        return self._run_jobs(jobs)

    def teardown(self) -> None:
        """Stop the daemon; a traced daemon's spans land in ``spans``."""
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc = None
            self.log.close()
            if self.traced:
                self.spans = tracing.load_spans(self.spans_path)
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


def make_workload(name, seed, exec_backend, smoke, workdir):
    benchmarks = select_benchmarks(smoke)
    if name == "serve-mixed":
        # A smoke pass sends 10 requests over its two programs.
        return ServeWorkload(
            exec_backend, benchmarks, workdir, rounds_per_pass=5 if smoke else 1
        )
    return SuiteWorkload(name, seed, exec_backend, benchmarks, workdir)
