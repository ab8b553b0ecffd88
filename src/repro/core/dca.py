"""DCA orchestration (paper Fig. 3).

``DcaAnalyzer.analyze`` runs one program + workload through a fixed list
of named stages.  Each stage is a method over one per-analysis state
record (``_Analysis``); the stage loop alone opens each stage's
``dca.<name>`` span and books that span's duration to
``DcaReport.stage_times_ms``, so all analysis work is booked to exactly
one stage:

1. ``selection`` — every source loop is a candidate unless it (or a
   callee) performs I/O (§IV-E).
2. ``profile`` — one run of the pristine program under the dynamic
   dependence profiler, whose same-invocation memory flow feeds iterator
   recognition and whose dependence graph feeds tiering.
3. ``static`` (``static_filter=True``) — the static commutativity prover
   (:mod:`repro.analysis.commutativity`) resolves loops whose verdict
   follows from the IR alone, modulo declared commutativity specs when
   those are on; proven loops skip permutation testing entirely
   (disable with ``static_filter=False`` / ``--no-static-filter``).
4. ``golden`` — the verify spec of every testable loop, then one run of
   the observe variant collecting per-loop, per-invocation live-out
   snapshots in original program order, plus the program's final
   outcome (eventual policy) and the test step budget.
5. ``dynamic`` — per remaining candidate loop, a test variant (outlined +
   split) runs once per schedule.  The identity schedule runs first as a
   transformation sanity check; perturbing schedules (reverse, random)
   only run when the loop actually iterates (≥2 trips somewhere), since
   permuting fewer than two iterations cannot change anything.  Any
   divergence or fault under a perturbing schedule marks the loop
   non-commutative; identity divergence marks the transformation unsound
   for that loop (reported separately as ``split-mismatch``).  Every
   :class:`~repro.core.report.LoopResult` records which stage decided it
   (``decided_by``: selection / static / static-specs / dynamic / cache).
6. ``tiering`` (``tiering=True``) — every loop gets a parallelization
   tier (DOALL / REDUCTION / PIPELINE / SEQUENTIAL) from its verdict and
   the profiled dependence graph (:mod:`repro.analysis.sccdag`).

When a persistent :class:`~repro.cache.AnalysisCache` is attached, each
loop that would enter schedule testing is first looked up by ``(workload
digest, loop label, config fingerprint)``; a hit replays the memoized verdict,
cost record and accounting instead of executing any schedule, and a miss
stores the freshly decided loop for the next run.  Warm reports
serialize byte-identically to cold ones (cache provenance and hit/miss
accounting are deliberately excluded from serialization).
"""

from __future__ import annotations

import pickle
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import repro.obs as obs
from repro.analysis.commutativity import (
    PROVEN_COMMUTATIVE,
    StaticCommutativityAnalysis,
    StaticLoopVerdict,
)
from repro.analysis.dynamic_deps import DynamicDepProfiler
from repro.analysis.loops import build_loop_forest
from repro.analysis.purity import EffectAnalysis
from repro.analysis.reductions import COMPLEX_REDUCTIONS, classify_loop
from repro.analysis.sccdag import (
    DEFAULT_MAX_PIPELINE_STAGES,
    TIER_DOALL,
    TIER_PIPELINE,
    TIER_REDUCTION,
    TIER_SEQUENTIAL,
    build_sccdag,
    partition_stages,
)
from repro.analysis.specs import SpecRegistry, default_registry
from repro.core.instrument import (
    VerifySpec,
    build_observe_module,
    build_test_module,
    compute_verify_spec,
    loop_does_io,
)
from repro.core.payload import OutlineError
from repro.cache.keys import (
    config_fingerprint,
    fingerprint_description,
    module_workload_digest,
)
from repro.core.report import (
    COMMUTATIVE,
    COMMUTATIVE_VACUOUS,
    DECIDED_DYNAMIC,
    DECIDED_SELECTION,
    DECIDED_STATIC,
    DECIDED_STATIC_SPECS,
    EXCLUDED_IO,
    ITERATOR_ONLY,
    NON_COMMUTATIVE,
    NOT_EXERCISED,
    RUNTIME_FAULT,
    SPLIT_MISMATCH,
    UNTESTABLE,
    DcaReport,
    LoopResult,
    add_counters,
)
from repro.core.runtime import DcaRuntime
from repro.core.schedule_engine import (
    CANCELLED,
    WORKER_LOST,
    LoopPlan,
    ScheduleEngine,
    ScheduleOutcome,
    ScheduleTask,
    create_engine,
    program_outcome,
)
from repro.core.schedules import IdentitySchedule, ScheduleConfig
from repro.interp.compiler import create_executor
from repro.ir.function import Module
from repro.settings import resolve


@dataclass
class _Analysis:
    """What the stages of one ``analyze`` call hand each other.  Built
    fresh per call, so no per-analysis state lives on the analyzer."""

    report: DcaReport
    #: Module effect summaries: I/O exclusion and verify specs.
    effects: Optional[EffectAnalysis] = None
    #: Dependence profiler from the profile run: its max trips gate
    #: static verdicts, its per-loop edges feed tiering.
    profiler: Optional[DynamicDepProfiler] = None
    #: label -> same-invocation flow edges, kept per loop: an edge
    #: discovered in an enclosing loop's scope must not leak into an
    #: inner loop's slice.
    memory_flow: Dict[str, Set] = field(default_factory=dict)
    #: label -> static pre-screen verdict.
    static_verdicts: Dict[str, StaticLoopVerdict] = field(default_factory=dict)
    #: label -> verify spec of every testable loop, in testing order.
    specs: Dict[str, VerifySpec] = field(default_factory=dict)
    #: label -> golden live-out snapshots, one per invocation.
    golden: Dict[str, List] = field(default_factory=dict)
    #: The golden run's final observable outcome (eventual policy).
    golden_outcome: Optional[Tuple] = None
    #: Step budget of every schedule execution.
    step_budget: Optional[int] = None
    #: Chrome-trace lane per worker pid (assigned in merge order).
    lane_by_pid: Dict[int, int] = field(default_factory=dict)


class DcaAnalyzer:
    """Runs Dynamic Commutativity Analysis on a compiled module."""

    def __init__(
        self,
        module: Module,
        entry: str = "main",
        args: Optional[Sequence[object]] = None,
        schedules: Optional[ScheduleConfig] = None,
        rtol: float = 1e-9,
        max_steps: Optional[int] = None,
        candidate_labels: Optional[Sequence[str]] = None,
        liveout_policy: str = "strict",
        static_filter: bool = True,
        specs=None,
        backend: Optional[str] = None,
        jobs: Optional[int] = None,
        engine: Optional[ScheduleEngine] = None,
        fault_injection: Optional[Dict[Tuple[str, str], str]] = None,
        exec_backend: Optional[str] = None,
        cache=None,
        source_text: Optional[str] = None,
        source_path: Optional[str] = None,
        tiering: Optional[bool] = None,
        max_pipeline_stages: int = DEFAULT_MAX_PIPELINE_STAGES,
    ):
        self.module = module
        self.entry = entry
        self.args = list(args or [])
        self.schedules = schedules or ScheduleConfig.default()
        self.rtol = rtol
        self.max_steps = max_steps
        self.candidate_labels = (
            set(candidate_labels) if candidate_labels is not None else None
        )
        if liveout_policy not in ("strict", "eventual"):
            raise ValueError(f"unknown liveout policy {liveout_policy!r}")
        #: "strict" compares loop live-outs at every loop exit; "eventual"
        #: compares only the program's final observable outcome (printed
        #: output, return value, final global state) — the relaxation that
        #: lets transient worklist ordering violations pass (paper §I/§III).
        self.liveout_policy = liveout_policy
        #: Pre-screen loops with the static commutativity prover: loops
        #: with a proven static verdict skip permutation testing.
        self.static_filter = static_filter
        #: Commutativity-spec registry (verification modulo declared
        #: equivalence; see :mod:`repro.analysis.specs`).  ``None``
        #: resolves from the ``REPRO_SPECS`` environment (default: off);
        #: ``True`` selects the built-in registry, ``False`` disables
        #: specs, a :class:`SpecRegistry` is used as-is.
        if specs is None or isinstance(specs, bool):
            specs = default_registry() if resolve("specs", specs) else None
        self.specs: Optional[SpecRegistry] = specs
        #: Declared container struct -> link-field slot, restricted to
        #: structs this module actually defines with the exact declared
        #: signature.  Empty whenever specs are off or nothing matches —
        #: then every downstream path is byte-identical to specs-off.
        self._chain_slots: Dict[str, int] = (
            self.specs.chain_slots(module) if self.specs is not None else {}
        )
        # Stage and schedule times are span durations on the clock of the
        # observability context current at ``analyze``: inject one
        # (``obs.disabled(clock=...)``) for deterministic reports,
        # byte-identical across backends.
        #: Schedule-execution backend (serial in-process by default; see
        #: :mod:`repro.core.schedule_engine` for the process backend and
        #: the ``REPRO_SCHEDULE_BACKEND`` / ``REPRO_SCHEDULE_JOBS``
        #: environment fallbacks).
        self._engine = engine or create_engine(backend, jobs)
        #: Execution backend for every run of the analysis — profile,
        #: golden and schedule replays: ``interp`` or ``codegen`` (see
        #: :mod:`repro.interp.compiler` and the ``REPRO_EXEC_BACKEND``
        #: environment fallback).  The profiling run takes codegen's
        #: profiled lowering under ``codegen``, with or without an
        #: enabled observability context.
        self.exec_backend = resolve("exec_backend", exec_backend)
        #: Testing hook: ``{(loop label, schedule name): fault style}``
        #: fires the named fault inside that schedule's execution.
        self.fault_injection = dict(fault_injection or {})
        #: Persistent analysis cache (:class:`repro.cache.AnalysisCache`
        #: or any object with the same ``lookup``/``store`` surface).
        #: Consulted per loop before schedules are planned; fault
        #: injection disables it — injected outcomes must never persist.
        self.cache = cache if not self.fault_injection else None
        #: Source provenance registered with the cache so ``repro cache
        #: verify`` can recompile and re-execute cached loops.
        self.source_text = source_text
        self.source_path = source_path
        #: Parallelization tiering (DOALL/REDUCTION/PIPELINE/SEQUENTIAL
        #: per loop; see :mod:`repro.analysis.sccdag`).  ``None`` resolves
        #: from the ``REPRO_TIERING`` environment (default: off).  When
        #: off, reports and cache keys are byte-identical to tiering-free
        #: releases.
        self.tiering = bool(resolve("tiering", tiering))
        if max_pipeline_stages < 2:
            raise ValueError("max_pipeline_stages must be >= 2")
        self.max_pipeline_stages = max_pipeline_stages
        self._workload_digest: Optional[str] = None
        #: Observability context; re-resolved at the start of ``analyze``.
        self._obs = obs.current()

    def analyze(self) -> DcaReport:
        self._obs = obs.current()
        report = DcaReport(
            entry=self.entry,
            static_filter=self.static_filter,
            tiering=self.tiering,
        )
        state = _Analysis(report)
        stages = [("selection", self._select), ("profile", self._profile)]
        if self.static_filter:
            stages.append(("static", self._prescreen))
        stages += [("golden", self._golden), ("dynamic", self._test_loops)]
        if self.tiering:
            stages.append(("tiering", self._assign_tiers))
        with self._obs.span("dca.analyze", entry=self.entry):
            for name, stage in stages:
                with self._obs.span(f"dca.{name}") as span:
                    stage(state)
                report.stage_times_ms[name] = span.dur_ms
        self._emit_verdict_events(report)
        return report

    # -- observability -------------------------------------------------------

    def _emit_verdict_events(self, report: DcaReport) -> None:
        if not self._obs.enabled:
            return
        for label in sorted(report.results):
            result = report.results[label]
            if result.is_commutative:
                severity = "info"
            elif result.verdict in (NON_COMMUTATIVE, SPLIT_MISMATCH, RUNTIME_FAULT):
                severity = "warning"
            else:
                severity = "note"
            self._obs.event(
                severity,
                "verdict",
                f"{label}: {result.verdict}",
                provenance=result.decided_by,
                loop=label,
                verdict=result.verdict,
                function=result.function,
            )

    # -- selection and profile stages -----------------------------------------

    def _select(self, state: _Analysis) -> None:
        state.effects = EffectAnalysis(self.module)
        state.report.results = self.select_candidates(state.effects)

    def select_candidates(
        self, effects: EffectAnalysis
    ) -> Dict[str, LoopResult]:
        """Classify every source loop; pre-assign verdicts for exclusions."""
        results: Dict[str, LoopResult] = {}
        for func in self.module.functions.values():
            forest = build_loop_forest(func)
            for label, meta in func.loops.items():
                if self.candidate_labels is not None and (
                    label not in self.candidate_labels
                ):
                    continue
                if label not in forest.loops:
                    continue
                loop = forest.loops[label]
                result = LoopResult(
                    label=label,
                    function=func.name,
                    line=meta.line,
                    kind=meta.kind,
                    verdict=NOT_EXERCISED,
                )
                if loop_does_io(func, loop.blocks, effects):
                    result.verdict = EXCLUDED_IO
                    result.reason = "loop or callee performs I/O"
                    result.decided_by = DECIDED_SELECTION
                results[label] = result
        return results

    def _run_program(self, report: DcaReport, module: Module, **kwargs):
        """Run ``module`` once from the entry, charged to the report as
        one execution; returns ``(executor, return value)``."""
        executor = create_executor(
            module,
            max_steps=self.max_steps,
            exec_backend=self.exec_backend,
            **kwargs,
        )
        value = executor.run(self.entry, self.args)
        report.executions += 1
        report.interp_instructions += executor.steps
        return executor, value

    def _profile(self, state: _Analysis) -> None:
        """One profiled run of the pristine program (iterator recognition
        and tiering)."""
        state.profiler = DynamicDepProfiler(self.module)
        self._run_program(
            state.report, self.module, observers=[state.profiler]
        )
        state.memory_flow = state.profiler.memory_flow_edges()

    # -- static and golden stages ---------------------------------------------

    def _prescreen(self, state: _Analysis) -> None:
        state.static_verdicts = StaticCommutativityAnalysis(
            self.module, specs=self.specs
        ).analyze()
        for label, result in state.report.results.items():
            verdict = state.static_verdicts.get(label)
            if verdict is not None:
                result.static_verdict = verdict.verdict
                result.static_evidence = [str(e) for e in verdict.evidence]
        if self._obs.enabled:
            for verdict in state.static_verdicts.values():
                self._obs.count(f"static.verdict.{verdict.verdict}")

    def _golden(self, state: _Analysis) -> None:
        """Verify specs for every testable loop, then the golden (observe)
        run of all of them at once.

        The golden runtime keeps every live-out snapshot, each with its
        content digest memoized at capture.  Replays compare digests
        first, in process or in a worker (the memo travels with the
        pickled snapshot), and fall back to the rtol comparison only
        when the digests differ."""
        report = state.report
        #: One module-wide equivalence annotation shared by every loop's
        #: VerifySpec: canonicalization keys on struct *types*, and a
        #: declared type means declared everywhere.
        equivalence = tuple(sorted(self._chain_slots.items())) or None
        for label, result in report.results.items():
            if result.verdict == NOT_EXERCISED:
                func = self.module.functions[result.function]
                spec = compute_verify_spec(
                    self.module, func, label, state.effects
                )
                spec.equivalence = equivalence
                state.specs[label] = spec

        observe = build_observe_module(self.module, state.specs)
        runtime = DcaRuntime(
            state.specs, capture_snapshots=(self.liveout_policy == "strict")
        )
        executor, value = self._run_program(report, observe, runtime=runtime)
        add_counters(report, runtime)
        state.golden = runtime.snapshots
        state.golden_outcome = program_outcome(
            executor, value, sorted(self.module.globals), self._chain_slots
        )
        for label in state.specs:
            report.results[label].invocations = runtime.invocation_count(label)
        # A permuted execution of a non-commutative loop may diverge (e.g. a
        # worklist that never drains).  Budget every test run relative to the
        # golden run so divergence is detected as a runtime fault (§IV-E)
        # instead of spinning forever.
        if self.max_steps is None:
            state.step_budget = executor.steps * 20 + 200_000
        else:
            state.step_budget = self.max_steps

    # -- persistent cache ------------------------------------------------------

    def workload_digest(self) -> str:
        """Content address of this analyzer's workload (module+entry+args)."""
        if self._workload_digest is None:
            self._workload_digest = module_workload_digest(
                self.module, self.entry, self.args
            )
        return self._workload_digest

    def _schedule_names(self) -> List[str]:
        """Canonical schedule name list: identity (always run first)
        plus the testing schedules, normalizing presets that do or do
        not list identity explicitly."""
        return ["identity"] + [
            s.name for s in self.schedules.testing_schedules()
        ]

    def _tiering_fingerprint(self) -> Optional[Dict[str, object]]:
        """Tiering's fingerprint contribution — ``None`` (key omitted,
        same as the specs pattern) whenever tiering is off, so
        tiering-off cache keys match tiering-free releases exactly."""
        if not self.tiering:
            return None
        return {"max_pipeline_stages": self.max_pipeline_stages}

    def _fingerprint_description(self) -> Dict[str, object]:
        return fingerprint_description(
            self._schedule_names(),
            rtol=self.rtol,
            liveout_policy=self.liveout_policy,
            static_filter=self.static_filter,
            max_steps=self.max_steps,
            candidate_labels=(
                sorted(self.candidate_labels)
                if self.candidate_labels is not None
                else None
            ),
            specs=self.specs.digest() if self.specs is not None else None,
            tiering=self._tiering_fingerprint(),
        )

    def config_fingerprint(self) -> str:
        """The verdict-relevant configuration digest — one third of the
        cache key (see :mod:`repro.cache.keys` for what it covers)."""
        return config_fingerprint(self._fingerprint_description())

    def _apply_cached(
        self,
        payload: Dict[str, object],
        result: LoopResult,
        report: DcaReport,
    ) -> None:
        """Replay one cached loop verdict into the report.

        Reconstructs the loop's result and its exact contribution to the
        report-level counters, so a warm report serializes to the same
        bytes as its cold twin while executing zero schedules.
        """
        result.apply_payload(payload["result"])
        report.add_loop_cost(result.cost)
        for reason, n in payload.get("skipped", {}).items():
            self._skip_schedules(report, reason, n)
        report.cache.hits += 1
        report.cache.schedule_executions_avoided += (
            result.cost.schedule_executions
        )
        self._obs.count("dca.cache_hits")

    def _store_cached(
        self,
        label: str,
        result: LoopResult,
        report: DcaReport,
        skipped_before: Dict[str, int],
        outcomes: Optional[List[ScheduleOutcome]] = None,
    ) -> None:
        """Memoize one freshly decided loop.

        Loops whose verdict involved a lost worker are not cached: the
        death is an environment event, and replaying it would make a
        transient infrastructure failure sticky.
        """
        if any(o.status == WORKER_LOST for o in outcomes or []):
            return
        skipped_delta = {
            reason: count - skipped_before.get(reason, 0)
            for reason, count in report.schedules_skipped.items()
            if count > skipped_before.get(reason, 0)
        }
        stored = self.cache.store(
            self.workload_digest(),
            label,
            self.config_fingerprint(),
            {"result": result.to_payload(), "skipped": skipped_delta},
            fingerprint_description=self._fingerprint_description(),
        )
        if stored:
            report.cache.stores += 1

    # -- dynamic stage --------------------------------------------------------

    def _test_loops(self, state: _Analysis) -> None:
        """Decide every testable loop: static proof, cache replay, or
        schedule testing on the engine."""
        report = state.report
        report.backend = self._engine.name
        report.jobs = self._engine.jobs
        report.exec_backend = self.exec_backend
        cache = self.cache
        if cache is not None:
            report.cache.enabled = True
            digest = self.workload_digest()
            fingerprint = self.config_fingerprint()
            cache.register_module(
                digest,
                source_text=self.source_text,
                source_path=self.source_path,
                entry=self.entry,
                args=self.args,
            )
        n_schedules = 1 + len(self.schedules.testing_schedules())
        plans: List[LoopPlan] = []
        for label in state.specs:
            result = report.results[label]
            if result.invocations == 0:
                result.decided_by = DECIDED_SELECTION
                continue
            if self._apply_static_verdict(state, label, result):
                report.static_schedules_saved += n_schedules
                continue
            result.decided_by = DECIDED_DYNAMIC
            if cache is not None:
                payload = cache.lookup(digest, label, fingerprint)
                if payload is not None:
                    self._apply_cached(payload, result, report)
                    continue
                report.cache.misses += 1
                if cache.has_stale_sibling(digest, label, fingerprint):
                    report.cache.invalidations += 1
            skipped_before = dict(report.schedules_skipped)
            plan = self._plan_loop(state, label, result)
            if plan is not None:
                plans.append(plan)
            elif cache is not None:
                # Untestable/iterator-only: decided during planning.
                self._store_cached(label, result, report, skipped_before)
        outcomes = self._engine.run(plans)
        for plan in plans:
            result = report.results[plan.label]
            skipped_before = dict(report.schedules_skipped)
            self._merge_loop(state, plan, outcomes[plan.label], result)
            report.add_loop_cost(result.cost)
            if cache is not None:
                self._store_cached(
                    plan.label,
                    result,
                    report,
                    skipped_before,
                    outcomes[plan.label],
                )

    # -- tiering stage -------------------------------------------------------

    def _assign_tiers(self, state: _Analysis) -> None:
        """Assign a parallelization tier to every loop (see
        :mod:`repro.analysis.sccdag` for the tier vocabulary).

        Commutative loops are DOALL — or REDUCTION when their payoff
        depends on privatized accumulators (carried reduction scalars or
        histogram updates).  Non-commutative and runtime-faulting loops
        get a chance at DSWP: if the SCC-DAG of their dependence graph
        partitions into 2+ stages they are PIPELINE, else SEQUENTIAL.
        Every other verdict (untestable, not-exercised, I/O, …) is
        SEQUENTIAL.  Tiers are recomputed from the fresh dependence
        profile on every run — cache replays never carry them.
        """
        report, profiler = state.report, state.profiler
        forests = {
            name: build_loop_forest(func)
            for name, func in self.module.functions.items()
        }
        for label in sorted(report.results):
            result = report.results[label]
            forest = forests.get(result.function)
            loop = forest.loops.get(label) if forest is not None else None
            if loop is None:
                result.tier = TIER_SEQUENTIAL
                continue
            func = self.module.functions[result.function]
            idioms = classify_loop(func, loop)
            if result.is_commutative:
                has_reduction = bool(idioms.histograms) or any(
                    klass in COMPLEX_REDUCTIONS
                    for klass in idioms.scalars.values()
                )
                result.tier = (
                    TIER_REDUCTION if has_reduction else TIER_DOALL
                )
                continue
            if result.verdict not in (NON_COMMUTATIVE, RUNTIME_FAULT):
                result.tier = TIER_SEQUENTIAL
                continue
            deps = profiler.deps_for(label)
            if deps is None:
                result.tier = TIER_SEQUENTIAL
                continue
            dag = build_sccdag(
                func,
                loop,
                deps,
                idioms,
                lambda loc, lb=label: profiler.is_privatizable(lb, loc),
            )
            plan = partition_stages(dag, self.max_pipeline_stages)
            if len(plan.stages) >= 2:
                result.tier = TIER_PIPELINE
                result.pipeline_plan = plan.to_dict()
            else:
                result.tier = TIER_SEQUENTIAL
        if self._obs.enabled:
            for tier, n in sorted(report.tier_counts().items()):
                self._obs.count(f"dca.tier.{tier}", n)

    def _apply_static_verdict(
        self, state: _Analysis, label: str, result: LoopResult
    ) -> bool:
        """Resolve a loop from its static proof, skipping permutation
        testing.  Applies only when the proof's preconditions hold for
        this workload: the loop must have a payload to permute (else the
        dynamic stage's ``iterator-only`` verdict is the truthful one)
        and must reach two iterations somewhere (else permutation is
        vacuous).  A non-commutativity proof additionally asserts a
        *per-exit* live-out difference, so it only stands in for the
        strict policy — under the eventual policy the difference may
        never become observable.
        """
        verdict = state.static_verdicts.get(label)
        if verdict is None or not verdict.is_proven or verdict.payload_empty:
            return False
        max_trip = state.profiler.max_trips.get(label, 0)
        if max_trip < 2:
            return False
        if verdict.verdict == PROVEN_COMMUTATIVE:
            result.verdict = COMMUTATIVE
        elif self.liveout_policy == "strict":
            result.verdict = NON_COMMUTATIVE
        else:
            return False
        if getattr(verdict, "used_specs", False):
            result.decided_by = DECIDED_STATIC_SPECS
            self._obs.count("dca.static_specs_decisions")
        else:
            result.decided_by = DECIDED_STATIC
        result.reason = verdict.headline()
        result.max_trip = max_trip
        return True

    # -- per-loop testing ----------------------------------------------------------

    def _skip_schedules(self, report: DcaReport, reason: str, n: int) -> None:
        if n > 0:
            report.schedules_skipped[reason] = (
                report.schedules_skipped.get(reason, 0) + n
            )

    def _plan_loop(
        self, state: _Analysis, label: str, result: LoopResult
    ) -> Optional[LoopPlan]:
        """Build the loop's schedule work units (identity first).

        Returns ``None`` when the loop cannot be outlined — the verdict
        is final and no executions are planned.
        """
        n_schedules = 1 + len(self.schedules.testing_schedules())
        spec = state.specs[label]
        try:
            instrumented = build_test_module(
                self.module,
                label,
                spec,
                memory_flow=state.memory_flow.get(label),
            )
        except OutlineError as exc:
            if exc.reason == "empty-payload":
                result.verdict = ITERATOR_ONLY
            else:
                result.verdict = UNTESTABLE
            result.reason = exc.reason
            self._skip_schedules(state.report, "untestable", n_schedules)
            return None

        strict = self.liveout_policy == "strict"
        #: One pickle shared by every task of this loop; each execution
        #: rehydrates a private module copy.
        module_blob = pickle.dumps(instrumented.module)
        global_names = sorted(self.module.globals)
        plan = LoopPlan(label=label, expected_invocations=result.invocations)
        schedules = [IdentitySchedule()] + list(
            self.schedules.testing_schedules()
        )
        for index, schedule in enumerate(schedules):
            plan.tasks.append(
                ScheduleTask(
                    label=label,
                    index=index,
                    entry=self.entry,
                    args=list(self.args),
                    schedule=schedule,
                    spec=spec,
                    module_blob=module_blob,
                    global_names=global_names,
                    golden=(
                        list(state.golden.get(label, [])) if strict else None
                    ),
                    golden_outcome=None if strict else state.golden_outcome,
                    liveout_policy=self.liveout_policy,
                    rtol=self.rtol,
                    max_steps=state.step_budget,
                    measure_time=self._obs.measures_time,
                    obs_enabled=self._obs.enabled,
                    inject_fault=self.fault_injection.get(
                        (label, schedule.name)
                    ),
                    exec_backend=self.exec_backend,
                )
            )
        return plan

    def _consume_outcome(
        self, state: _Analysis, outcome: ScheduleOutcome, result: LoopResult
    ) -> None:
        """Fold one consumed execution into the loop's cost record (the
        report totals take the whole record once the loop is merged).

        Only *consumed* outcomes count: the process backend may have
        speculatively executed schedules past a loop's first failure,
        and those must not perturb counters relative to the serial
        backend's short-circuit.
        """
        cost = result.cost
        cost.schedule_executions += 1
        cost.interp_instructions += outcome.steps
        add_counters(cost, outcome)
        self._obs.count("dca.schedule_executions")
        cost.schedule_times_ms[outcome.schedule_name] = outcome.wall_ms
        cost.schedule_cpu_times_ms[outcome.schedule_name] = outcome.cpu_ms
        if outcome.snapshot_digest:
            result.schedule_digests[outcome.schedule_name] = (
                outcome.snapshot_digest
            )
        if outcome.mismatch_report and result.mismatch_detail is None:
            result.mismatch_detail = dict(outcome.mismatch_report)
        if outcome.obs is not None:
            pid = outcome.obs.get("pid")
            lanes = state.lane_by_pid
            lane = lanes.setdefault(pid, len(lanes) + 1)
            self._obs.absorb(outcome.obs, lane=lane)

    def _merge_loop(
        self,
        state: _Analysis,
        plan: LoopPlan,
        outcomes: List[ScheduleOutcome],
        result: LoopResult,
    ) -> None:
        """Derive the loop's verdict from its outcomes, in task order.

        Replicates the sequential decision procedure exactly — identity
        gate, vacuous check, first-failure short-circuit — regardless of
        how many schedules the backend actually executed.
        """
        report, label = state.report, plan.label
        expected = plan.expected_invocations
        n_testing = len(plan.tasks) - 1

        def loop_span():
            # The serial engine already nested live dca.schedule spans
            # inside its own dca.loop span; engines that execute
            # elsewhere get the loop span at merge time, with worker
            # spans absorbed inside it.
            if self._engine.emits_loop_spans:
                return nullcontext()
            return self._obs.span("dca.loop", loop=label)

        with loop_span():
            identity = outcomes[0]
            self._consume_outcome(state, identity, result)
            identity_faulted = identity.status not in ("ok", "mismatch")
            if identity_faulted or identity.violations or not identity.outcome_ok:
                result.verdict = SPLIT_MISMATCH
                result.reason = "identity replay diverged from golden reference"
                result.schedules_tested.append("identity")
                result.failed_schedule = "identity"
                self._skip_schedules(report, "short-circuit", n_testing)
                return
            if identity.invocation_count != expected:
                result.verdict = SPLIT_MISMATCH
                result.reason = "identity replay changed the invocation count"
                result.failed_schedule = "identity"
                self._skip_schedules(report, "short-circuit", n_testing)
                return
            result.schedules_tested.append("identity")
            result.max_trip = identity.max_trip

            if result.max_trip < 2:
                result.verdict = COMMUTATIVE_VACUOUS
                result.reason = "no invocation reached 2 iterations"
                self._skip_schedules(report, "vacuous", n_testing)
                return

            for i in range(1, len(plan.tasks)):
                outcome = outcomes[i]
                if outcome.status == CANCELLED:
                    # The engine violated its contract (every task up to
                    # the first failure must execute); treat as a fault
                    # rather than mislabel the loop commutative.
                    outcome.status = "fault"
                    outcome.error = "schedule was never executed"
                name = outcome.schedule_name
                self._consume_outcome(state, outcome, result)
                result.schedules_tested.append(name)
                if outcome.status not in ("ok", "mismatch"):
                    result.verdict = RUNTIME_FAULT
                    result.reason = f"fault under schedule {name}"
                    result.failed_schedule = name
                    self._skip_schedules(report, "short-circuit", n_testing - i)
                    return
                if outcome.violations or not outcome.outcome_ok:
                    result.verdict = NON_COMMUTATIVE
                    result.reason = f"live-outs changed under {name}"
                    result.failed_schedule = name
                    self._skip_schedules(report, "short-circuit", n_testing - i)
                    return
                if outcome.invocation_count != expected:
                    result.verdict = NON_COMMUTATIVE
                    result.reason = f"invocation count changed under {name}"
                    result.failed_schedule = name
                    self._skip_schedules(report, "short-circuit", n_testing - i)
                    return
            result.verdict = COMMUTATIVE
