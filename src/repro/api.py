"""``repro.api`` — the embedding API for the DCA pipeline.

One frozen :class:`AnalysisConfig` value object (defined in
:mod:`repro.core.config`, re-exported here) captures every knob the
pipeline accepts (schedules, seeds, tolerance, live-out policy, static
filter, schedule/exec backends, jobs, cache and ledger policy);
``DcaAnalyzer(module, config)`` is the one way to build an analyzer
from it.  One :class:`AnalysisSession` facade drives the four entry
points — ``analyze``, ``detect``, ``profile``, ``batch`` — over a
config.  The CLI is a thin adapter on top of this module.

**Precedence.**  Explicit config always beats the environment; the
environment beats defaults.  Every environment-backed field resolves
through the one table in :mod:`repro.settings` (DESIGN.md §17 lists it with
its flags and defaults); :meth:`AnalysisConfig.resolved` applies it to
a whole config, the analyzer calls it once, and ``tests/test_api.py``
pins the order.

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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.cache import open_cache
from repro.core.config import AnalysisConfig
from repro.core.dca import DcaAnalyzer
from repro.core.report import DcaReport
from repro.ir.function import Module

__all__ = [
    "AnalysisConfig",
    "AnalysisSession",
    "DetectOutcome",
]


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
    calls) and builds every :class:`DcaAnalyzer` from its config.

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
            self._cache = open_cache(
                self.config.resolved().cache_dir, mode=self.config.cache_mode
            )
        return self._cache

    @property
    def ledger(self):
        """The open :class:`~repro.obs.RunLedger`, or None."""
        if not self._ledger_opened:
            self._ledger_opened = True
            directory = self.config.resolved().ledger_dir
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
            **report.ledger_columns(),
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
        """The configured analyzer over ``module``, sharing this
        session's cache."""
        return DcaAnalyzer(
            module,
            self.config,
            cache=self.cache,
            source_text=source_text,
            source_path=source_path,
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
        analyzer = self.analyzer(
            module, source_text=source_text, source_path=source_path
        )
        report = analyzer.analyze()
        # DCA instruments clones, so the baselines profile the same
        # pristine module, on the configured entry arguments.
        ctx = build_context(
            module,
            entry=self.config.entry,
            args=self.config.args,
            max_steps=self.config.max_steps,
            exec_backend=analyzer.config.exec_backend,
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
        context is installed; the caller owns disabling it.  The
        configured exec backend runs exactly as it would untraced, so
        the spans time the program an ``analyze`` call runs.
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
