"""``repro.api`` — the embedding API for the DCA pipeline.

This module is the **single construction point** for analyses: one
frozen :class:`AnalysisConfig` value object captures every knob the
pipeline accepts (schedules, seeds, tolerance, live-out policy, static
filter, schedule/exec backends, jobs, observability, cache policy), and
one :class:`AnalysisSession` facade drives the four entry points —
``analyze``, ``detect``, ``profile``, ``batch`` — over it.  The CLI is
a thin adapter on top of this module; scattered kwargs and ad-hoc
``REPRO_*`` reads are considered legacy.

**Precedence.**  Explicit config always beats the environment; the
environment beats defaults.  Concretely (unit-tested in
``tests/test_api.py``):

* ``backend``/``jobs`` — resolved by
  :func:`repro.core.schedule_engine.resolve_schedule_backend`: explicit
  backend, then process implied by explicit ``jobs > 1``, then
  ``REPRO_SCHEDULE_BACKEND``, then process implied by
  ``REPRO_SCHEDULE_JOBS > 1``, then serial.
* ``exec_backend`` — explicit value, then ``REPRO_EXEC_BACKEND``, then
  the interpreter.
* ``cache_dir`` — explicit value, then ``REPRO_CACHE_DIR``, then
  disabled.

**Caching.**  :meth:`AnalysisConfig.fingerprint` is the exact
config-fingerprint component of the persistent cache key (see
:mod:`repro.cache.keys`); it covers only verdict-relevant settings, so
cache entries are shared across schedule backends, job counts, exec
backends and observability — the same axes report serialization is
byte-identical across.

Quickstart::

    from repro.api import AnalysisConfig, AnalysisSession

    config = AnalysisConfig(liveout_policy="strict", jobs=4,
                            cache_dir="~/.cache/repro-dca")
    with AnalysisSession(config) as session:
        report = session.analyze(source_text)
        for loop in report.commutative_loops():
            print(loop.qualified_name)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.cache import open_cache, resolve_cache_dir
from repro.cache.keys import config_fingerprint
from repro.core.dca import DcaAnalyzer
from repro.core.report import DcaReport
from repro.core.schedule_engine import resolve_schedule_backend
from repro.core.schedules import ScheduleConfig
from repro.interp.compiler import EXEC_BACKENDS, resolve_exec_backend
from repro.ir.function import Module

__all__ = [
    "AnalysisConfig",
    "AnalysisSession",
    "DetectOutcome",
]


@dataclass(frozen=True)
class AnalysisConfig:
    """Immutable description of one analysis configuration.

    Build variants with :meth:`replace`; equality and hashing follow
    value semantics, so configs can key dictionaries and memo tables.
    """

    #: Entry function and its arguments (the workload).
    entry: str = "main"
    args: Tuple[object, ...] = ()
    #: Float tolerance for live-out comparison.
    rtol: float = 1e-9
    #: "strict" compares live-outs at every loop exit; "eventual" only
    #: the final observable outcome.
    liveout_policy: str = "strict"
    #: Pre-screen loops with the static commutativity prover.
    static_filter: bool = True
    #: Interpreter step budget (None derives one from the golden run).
    max_steps: Optional[int] = None
    #: Schedule preset: either an explicit :class:`ScheduleConfig`, or
    #: the paper's default preset parameterized by these two knobs.
    schedules: Optional[ScheduleConfig] = None
    n_random_schedules: int = 2
    schedule_seed: int = 0xDCA
    #: Restrict analysis to these loop labels (None analyzes all).
    candidate_labels: Optional[Tuple[str, ...]] = None
    #: Schedule-execution backend ("serial"/"process") and worker count;
    #: None defers to the environment, then the defaults.
    backend: Optional[str] = None
    jobs: Optional[int] = None
    #: Execution backend for observer-free runs (one of
    #: :data:`repro.interp.compiler.EXEC_BACKENDS`).
    exec_backend: Optional[str] = None
    #: Record spans/metrics/events during session operations.
    obs: bool = False
    #: Persistent cache directory (None defers to ``REPRO_CACHE_DIR``,
    #: then disabled) and mode ("rw", "ro", "refresh", or "off").
    cache_dir: Optional[str] = None
    cache_mode: str = "rw"
    #: Commutativity specs (verification modulo declared equivalence;
    #: see :mod:`repro.analysis.specs`).  None defers to ``REPRO_SPECS``
    #: (default: off); True/False force the built-in registry on or off.
    specs: Optional[bool] = None
    #: Run-ledger directory (None defers to ``REPRO_LEDGER_DIR``, then
    #: disabled; the explicit value "off" disables even over the
    #: environment).  Session entry points append one headline row per
    #: run (see :mod:`repro.obs.ledger` and ``repro stats``).
    ledger_dir: Optional[str] = None
    #: Parallelization tiering (DOALL/REDUCTION/PIPELINE/SEQUENTIAL per
    #: loop; see :mod:`repro.analysis.sccdag`).  None defers to
    #: ``REPRO_TIERING`` (default: off); True/False force it.  When on,
    #: reports serialize under ``report_schema_version`` 2.
    tiering: Optional[bool] = None
    #: Upper bound on DSWP pipeline stages per loop (>= 2).
    max_pipeline_stages: int = 4

    def __post_init__(self) -> None:
        if self.liveout_policy not in ("strict", "eventual"):
            raise ValueError(
                f"unknown liveout policy {self.liveout_policy!r}"
            )
        if self.cache_mode not in ("rw", "ro", "refresh", "off"):
            raise ValueError(f"unknown cache mode {self.cache_mode!r}")
        if self.backend not in (None, "serial", "process"):
            raise ValueError(f"unknown schedule backend {self.backend!r}")
        # Validate against the backend registry, not a local copy: the
        # explicit field must accept exactly what REPRO_EXEC_BACKEND
        # accepts, or the documented explicit-beats-env precedence
        # silently inverts for backends missing from the copy.
        if self.exec_backend is not None and self.exec_backend not in EXEC_BACKENDS:
            raise ValueError(f"unknown exec backend {self.exec_backend!r}")
        if self.max_pipeline_stages < 2:
            raise ValueError("max_pipeline_stages must be >= 2")
        # Frozen dataclasses hash by field tuple; normalize silently
        # mutable aliases so value semantics hold.
        if isinstance(self.args, list):
            object.__setattr__(self, "args", tuple(self.args))
        if isinstance(self.candidate_labels, list):
            object.__setattr__(
                self, "candidate_labels", tuple(self.candidate_labels)
            )

    def replace(self, **changes) -> "AnalysisConfig":
        """A copy of this config with the given fields changed."""
        return dataclasses.replace(self, **changes)

    # -- resolution (explicit > environment > default) --------------------

    def schedule_config(self) -> ScheduleConfig:
        if self.schedules is not None:
            return self.schedules
        return ScheduleConfig.default(
            n_random=self.n_random_schedules, seed=self.schedule_seed
        )

    def schedule_names(self) -> List[str]:
        """Canonical schedule names: identity plus the testing set."""
        return ["identity"] + [
            s.name for s in self.schedule_config().testing_schedules()
        ]

    def resolved_backend(self) -> Tuple[str, Optional[int]]:
        return resolve_schedule_backend(self.backend, self.jobs)

    def resolved_exec_backend(self) -> str:
        return resolve_exec_backend(self.exec_backend)

    def resolved_cache_dir(self) -> Optional[str]:
        if self.cache_mode == "off":
            return None
        return resolve_cache_dir(self.cache_dir)

    def resolved_ledger_dir(self) -> Optional[str]:
        if self.ledger_dir == "off":
            return None
        return obs.resolve_ledger_dir(self.ledger_dir)

    def resolved_specs(self):
        """The effective :class:`~repro.analysis.specs.SpecRegistry`:
        explicit ``specs`` beats ``REPRO_SPECS`` beats off."""
        from repro.analysis.specs import default_registry, registry_from_env

        if self.specs is None:
            return registry_from_env()
        return default_registry() if self.specs else None

    def resolved_tiering(self) -> bool:
        """Effective tiering switch: explicit ``tiering`` beats
        ``REPRO_TIERING`` beats off."""
        from repro.analysis.sccdag import resolve_tiering

        return resolve_tiering(self.tiering)

    def fingerprint(self) -> str:
        """The exact config-fingerprint component of the persistent
        cache key.  Covers only verdict-relevant settings — backends,
        jobs, observability and cache policy are excluded, matching the
        report byte-identity contract across those axes."""
        registry = self.resolved_specs()
        return config_fingerprint(
            self.schedule_names(),
            rtol=self.rtol,
            liveout_policy=self.liveout_policy,
            static_filter=self.static_filter,
            max_steps=self.max_steps,
            candidate_labels=self.candidate_labels,
            specs=registry.digest() if registry is not None else None,
            tiering=(
                {"max_pipeline_stages": self.max_pipeline_stages}
                if self.resolved_tiering()
                else None
            ),
        )


@dataclass
class DetectOutcome:
    """Result of :meth:`AnalysisSession.detect`: DCA versus baselines."""

    report: DcaReport
    #: detector name -> {loop label -> detection result object}.
    baselines: Dict[str, Dict[str, object]]
    #: detector name -> cost counters (plus the shared "profile" entry).
    costs: Dict[str, Dict[str, float]]
    #: Detector evaluation order (stable for table rendering).
    detector_names: List[str]

    def baseline_verdicts(self) -> Dict[str, Dict[str, bool]]:
        return {
            name: {
                label: bool(res and res.parallel)
                for label, res in results.items()
            }
            for name, results in self.baselines.items()
        }


class AnalysisSession:
    """Facade over the whole pipeline for one configuration.

    Owns the persistent cache handle (one connection reused across
    calls) and constructs every :class:`DcaAnalyzer` the same way —
    adapters (CLI, driver, batch) should never assemble analyzer kwargs
    themselves.

    **Concurrency contract.**  A session is single-threaded: entry
    points must not be invoked concurrently on one session.  Concurrent
    callers (the ``repro serve`` daemon) run one session per in-flight
    request and share the expensive state underneath instead — the
    schedule-engine worker pool is process-global already, and one open
    :class:`~repro.cache.AnalysisCache` handle may be passed as
    ``cache=`` to any number of sessions (the handle serializes its own
    statements; see :mod:`repro.cache.store`).  An injected cache is
    *borrowed*: :meth:`close` leaves it open, its owner closes it.
    """

    def __init__(
        self,
        config: Optional[AnalysisConfig] = None,
        cache=None,
    ):
        self.config = config or AnalysisConfig()
        self._cache = cache
        self._cache_opened = cache is not None
        self._cache_owned = cache is None
        self._ledger = None
        self._ledger_opened = False

    # -- plumbing ----------------------------------------------------------

    @property
    def cache(self):
        """The open :class:`~repro.cache.AnalysisCache`, or None."""
        if not self._cache_opened:
            self._cache_opened = True
            mode = self.config.cache_mode
            if mode != "off":
                self._cache = open_cache(
                    self.config.resolved_cache_dir(), mode=mode
                )
        return self._cache

    @property
    def ledger(self):
        """The open :class:`~repro.obs.RunLedger`, or None."""
        if not self._ledger_opened:
            self._ledger_opened = True
            directory = self.config.resolved_ledger_dir()
            if directory is not None:
                self._ledger = obs.RunLedger(directory)
        return self._ledger

    def close(self) -> None:
        if self._cache is not None:
            if self._cache_owned:
                self._cache.close()
            self._cache = None
            self._cache_opened = False
            self._cache_owned = True
        if self._ledger is not None:
            self._ledger.close()
            self._ledger = None
            self._ledger_opened = False

    def _record_run(
        self, kind: str, report: DcaReport, source_path: Optional[str]
    ) -> None:
        """Append one headline row to the run ledger (when configured)."""
        ledger = self.ledger
        if ledger is None:
            return
        ledger.record(
            kind=kind,
            program=source_path or "<inline>",
            fingerprint=self.config.fingerprint(),
            wall_ms=sum(report.stage_times_ms.values()),
            schedule_executions=report.schedule_executions,
            executions_saved=(
                report.static_schedules_saved
                + report.cache.schedule_executions_avoided
            ),
            cache_hits=report.cache.hits,
            cache_misses=report.cache.misses,
            verdicts=report.verdict_counts(),
            tiers=report.tier_counts() if report.tiering else {},
            stage_times=report.stage_times_ms,
        )

    def __enter__(self) -> "AnalysisSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def compile(self, source: str) -> Module:
        from repro.driver import compile_program

        return compile_program(source)

    def _prepare(self, program) -> Tuple[Module, Optional[str]]:
        """(module, source text) for a source-or-module argument."""
        if isinstance(program, Module):
            return program, None
        return self.compile(program), program

    def analyzer(
        self,
        module: Module,
        source_text: Optional[str] = None,
        source_path: Optional[str] = None,
    ) -> DcaAnalyzer:
        """Construct the configured analyzer — the one true assembly of
        ``DcaAnalyzer`` kwargs from an :class:`AnalysisConfig`."""
        config = self.config
        backend, jobs = config.resolved_backend()
        return DcaAnalyzer(
            module,
            entry=config.entry,
            args=list(config.args),
            schedules=config.schedule_config(),
            rtol=config.rtol,
            max_steps=config.max_steps,
            candidate_labels=config.candidate_labels,
            liveout_policy=config.liveout_policy,
            static_filter=config.static_filter,
            specs=config.resolved_specs() or False,
            backend=backend,
            jobs=jobs,
            exec_backend=config.resolved_exec_backend(),
            cache=self.cache,
            source_text=source_text,
            source_path=source_path,
            tiering=config.resolved_tiering(),
            max_pipeline_stages=config.max_pipeline_stages,
        )

    # -- entry points ------------------------------------------------------

    def analyze(self, program, source_path: Optional[str] = None) -> DcaReport:
        """Run DCA over a program (source text or compiled module)."""
        module, source_text = self._prepare(program)
        report = self.analyzer(
            module, source_text=source_text, source_path=source_path
        ).analyze()
        self._record_run("analyze", report, source_path)
        return report

    def detect(self, program, source_path: Optional[str] = None) -> DetectOutcome:
        """Run DCA plus the five baseline detectors."""
        from repro.baselines import (
            DependenceProfilingDetector,
            DiscoPopDetector,
            IccDetector,
            IdiomsDetector,
            PollyDetector,
            build_context,
        )

        module, source_text = self._prepare(program)
        report = self.analyzer(
            module, source_text=source_text, source_path=source_path
        ).analyze()
        # Baselines profile the pristine program; give them a private
        # compile so DCA instrumentation cannot leak into their context.
        pristine, _ = self._prepare(
            program if source_text is None else source_text
        )
        ctx = build_context(
            pristine,
            entry=self.config.entry,
            exec_backend=self.config.resolved_exec_backend(),
        )
        detectors = [
            DependenceProfilingDetector(),
            DiscoPopDetector(),
            IdiomsDetector(),
            PollyDetector(),
            IccDetector(),
        ]
        results = {d.name: d.detect(ctx) for d in detectors}
        self._record_run("detect", report, source_path)
        return DetectOutcome(
            report=report,
            baselines=results,
            costs=ctx.costs,
            detector_names=[d.name for d in detectors],
        )

    def profile(self, program, source_path: Optional[str] = None):
        """Run DCA with full observability enabled.

        Returns ``(report, obs_context)``.  If the process-local
        observability context is not already enabled, a fresh enabled
        context is installed; the caller owns disabling it.
        """
        ctx = obs.current()
        if not ctx.enabled:
            ctx = obs.enable()
        if isinstance(program, Module):
            module, source_text = program, None
        else:
            with ctx.span("repro.compile"):
                module = self.compile(program)
            source_text = program
        report = self.analyzer(
            module, source_text=source_text, source_path=source_path
        ).analyze()
        self._record_run("profile", report, source_path)
        return report, ctx

    def batch(
        self,
        paths: Sequence[str] = (),
        manifest: Optional[str] = None,
        on_result=None,
        fail_fast: bool = False,
    ):
        """Analyze a corpus of programs (see :mod:`repro.batch`).

        ``paths`` mixes program files and directories (scanned for
        ``*.mc``); ``manifest`` points at a JSON/JSONL program list.
        ``on_result`` streams per-program outcomes as they complete.
        ``fail_fast`` stops submitting after the first failed program.
        Returns a :class:`repro.batch.CorpusResult`.
        """
        from repro.batch import run_batch

        result = run_batch(
            self.config,
            paths=paths,
            manifest=manifest,
            on_result=on_result,
            fail_fast=fail_fast,
        )
        ledger = self.ledger
        if ledger is not None:
            summary = result.to_dict()
            saved = 0
            for outcome in result.outcomes:
                if outcome.report:
                    metrics = outcome.report.get("metrics", {})
                    saved += int(
                        metrics.get("schedule_executions_saved_static", 0)
                    )
            corpus = ";".join(
                list(paths) + ([manifest] if manifest else [])
            )
            ledger.record(
                kind="batch",
                program=corpus or "<corpus>",
                fingerprint=self.config.fingerprint(),
                wall_ms=result.wall_ms,
                schedule_executions=summary["schedule_executions"],
                executions_saved=saved,
                cache_hits=summary["cache_hits"],
                cache_misses=summary["cache_misses"],
                verdicts=result.verdict_counts(),
                extra={
                    "programs": summary["programs"],
                    "status_counts": summary["status_counts"],
                },
            )
        return result
