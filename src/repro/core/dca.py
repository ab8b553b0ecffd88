"""DCA orchestration (paper Fig. 3).

``DcaAnalyzer(module, config)`` takes every setting from one
:class:`~repro.core.config.AnalysisConfig`, resolved once.
``DcaAnalyzer.analyze`` runs one program + workload through a fixed list
of named stages.  Each stage is a method over one per-analysis state
record (``_Analysis``); the stage loop alone opens each stage's
``dca.<name>`` span and books that span's duration to
``DcaReport.stage_times_ms``, so all analysis work is booked to exactly
one stage:

1. ``selection`` — every source loop is a candidate unless it (or a
   callee) performs I/O (§IV-E).
2. ``profile`` — one run of the pristine program under the dynamic
   dependence profiler, kept as a
   :class:`~repro.analysis.dynamic_deps.ProfileSummary`: its trip
   counts gate the cache lookups and static verdicts, its same-invocation
   memory flow feeds iterator recognition and its dependence pairs feed
   tiering.  With a cache attached the summary is memoized per workload,
   and a hit runs no program.
3. ``static`` (``static_filter=True``) — the static commutativity prover
   (:mod:`repro.analysis.commutativity`) decides loops whose verdict
   follows from the IR alone, modulo declared commutativity specs when
   those are on, and whose profile run reached two iterations; proven
   loops skip permutation testing entirely (disable with
   ``static_filter=False`` / ``--no-static-filter``).
4. ``golden`` — the verify spec of every testable loop; the cache lookup
   of every loop the profile run entered and no proof decided; then one
   run of the observe variant, which instruments every testable loop
   (invocation counts) but captures per-invocation live-out snapshots,
   in original program order, only for the loops left to replay; plus
   the program's final outcome (eventual policy) and the step budget.
5. ``dynamic`` — per loop left to replay, a test variant (outlined +
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

When a persistent :class:`~repro.cache.AnalysisCache` is attached, the
profile stage first looks up the workload's profile summary by
``(workload digest, profile key)`` — the key hashes only what can change
a profile (see :func:`~repro.cache.keys.profile_key`), so every config
of one workload shares it — and a hit stands in for the profile run,
still counted as one execution of its recorded length.  Then each
loop that would enter schedule testing is looked up by ``(workload
digest, loop label, config fingerprint)``; a hit replays the memoized verdict,
cost record, golden snapshot tally and accounting instead of capturing
its live-outs or executing any schedule, and a miss stores the freshly
decided loop for the next run.  A fully warm analysis thus executes the
program once, for the golden run.  Warm reports
serialize byte-identically to cold ones (cache provenance and hit/miss
accounting are deliberately excluded from serialization).
"""

from __future__ import annotations

import pickle
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import repro.obs as obs
from repro.analysis.commutativity import (
    PROVEN_COMMUTATIVE,
    StaticCommutativityAnalysis,
    StaticLoopVerdict,
)
from repro.analysis.dynamic_deps import ProfileSummary, profile_program
from repro.analysis.loops import build_loop_forest, invalidate_loops
from repro.analysis.purity import EffectAnalysis
from repro.analysis.reductions import COMPLEX_REDUCTIONS, classify_loop
from repro.analysis.sccdag import (
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
from repro.cache.keys import module_workload_digest, profile_key
from repro.core.config import AnalysisConfig
from repro.core.report import (
    COMMUTATIVE,
    COMMUTATIVE_VACUOUS,
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
    FAILED_FAULT,
    FAILED_INVOCATIONS,
    FAILED_LIVEOUT,
    WORKER_LOST,
    LoopPlan,
    ScheduleOutcome,
    ScheduleTask,
    create_engine,
    outcome_failure,
    program_outcome,
)
from repro.core.schedules import IdentitySchedule
from repro.interp.compiler import create_executor
from repro.ir.function import Module

#: (verdict, reason template) of a testing schedule's failure, per
#: :func:`~repro.core.schedule_engine.outcome_failure` kind.
_SCHEDULE_FAILURES = {
    FAILED_FAULT: (RUNTIME_FAULT, "fault under schedule {}"),
    FAILED_LIVEOUT: (NON_COMMUTATIVE, "live-outs changed under {}"),
    FAILED_INVOCATIONS: (NON_COMMUTATIVE, "invocation count changed under {}"),
}


@dataclass
class _Analysis:
    """What the stages of one ``analyze`` call hand each other.  Built
    fresh per call, so no per-analysis state lives on the analyzer."""

    report: DcaReport
    #: Module effect summaries: I/O exclusion and verify specs.
    effects: Optional[EffectAnalysis] = None
    #: Summary of the profile run: its max trips gate cache lookups and
    #: static verdicts, its per-loop flow pairs feed iterator
    #: recognition (kept per loop: a pair discovered in an enclosing
    #: loop's scope must not leak into an inner loop's slice) and its
    #: dependence pairs feed tiering and, under ``detect``, the
    #: profile-driven baselines.
    profile: Optional[ProfileSummary] = None
    #: label -> static pre-screen verdict.
    static_verdicts: Dict[str, StaticLoopVerdict] = field(default_factory=dict)
    #: label -> verify spec of every testable loop, in testing order.
    specs: Dict[str, VerifySpec] = field(default_factory=dict)
    #: Labels no static proof or cache entry decided, in testing order:
    #: the loops the dynamic stage replays.
    pending: List[str] = field(default_factory=list)
    #: label -> golden live-out snapshots, one per invocation (pending
    #: loops, strict policy).
    golden: Dict[str, List] = field(default_factory=dict)
    #: The golden run's final observable outcome (eventual policy).
    golden_outcome: Optional[Tuple] = None
    #: Step budget of every schedule execution.
    step_budget: Optional[int] = None
    #: Chrome-trace lane per worker pid (assigned in merge order).
    lane_by_pid: Dict[int, int] = field(default_factory=dict)
    #: ``(fingerprint, description)`` of the config, when a cache is on.
    cache_key: Optional[Tuple[str, Dict[str, object]]] = None


class DcaAnalyzer:
    """Runs Dynamic Commutativity Analysis on a compiled module."""

    def __init__(
        self,
        module: Module,
        config: Optional[AnalysisConfig] = None,
        *,
        cache=None,
        fault_injection: Optional[Dict[Tuple[str, str], str]] = None,
        source_text: Optional[str] = None,
        source_path: Optional[str] = None,
    ):
        self.module = module
        #: Every setting, resolved once (explicit field > ``REPRO_*``
        #: variable > default; see :meth:`AnalysisConfig.resolved`).
        self.config = (config or AnalysisConfig()).resolved()
        self._schedules = self.config.schedule_config()
        #: Commutativity-spec registry (verification modulo declared
        #: equivalence; see :mod:`repro.analysis.specs`), or None.
        self.specs: Optional[SpecRegistry] = (
            default_registry() if self.config.specs else None
        )
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
        self._engine = create_engine(self.config.backend, self.config.jobs)
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
        self._workload_digest: Optional[str] = None
        #: Observability context; re-resolved at the start of ``analyze``.
        self._obs = obs.current()

    def analyze(self) -> DcaReport:
        return self.run().report

    def run(self) -> _Analysis:
        """Run every stage; returns their shared state, the report and
        the profile summary (which ``repro detect`` hands the baselines)
        included."""
        self._obs = obs.current()
        report = DcaReport(
            entry=self.config.entry,
            exec_backend=self.config.exec_backend,
            static_filter=self.config.static_filter,
            tiering=self.config.tiering,
        )
        state = _Analysis(report)
        stages = [("selection", self._select), ("profile", self._profile)]
        if self.config.static_filter:
            stages.append(("static", self._prescreen))
        stages += [("golden", self._golden), ("dynamic", self._test_loops)]
        if self.config.tiering:
            stages.append(("tiering", self._assign_tiers))
        with self._obs.span("dca.analyze", entry=self.config.entry):
            for name, stage in stages:
                with self._obs.span(f"dca.{name}") as span:
                    stage(state)
                report.stage_times_ms[name] = span.dur_ms
        # The stages share each function's analyses through its memo
        # (repro.analysis.loops.function_analyses).  The module can
        # outlive the analysis, e.g. in the codegen compile memo, so the
        # memos end here instead of living on with it.
        for func in self.module.functions.values():
            invalidate_loops(func)
        self._emit_verdict_events(report)
        return state

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
                if self.config.candidate_labels is not None and (
                    label not in self.config.candidate_labels
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

    def _profile(self, state: _Analysis) -> None:
        """The profile summary of the pristine program: the cache's
        copy for this workload when it has one, else the summary of one
        profiled run (stored when a cache is attached).

        A memoized summary still counts as the execution it replaces,
        so warm reports keep their cold bytes."""
        report, cache = state.report, self.cache
        if cache is not None:
            report.cache.enabled = True
            digest = self.workload_digest()
            key = profile_key(self.config.max_steps)
            cache.register_module(
                digest,
                source_text=self.source_text,
                source_path=self.source_path,
                entry=self.config.entry,
                args=self.config.args,
            )
            payload = cache.lookup_profile(digest, key)
            if payload is not None:
                state.profile = ProfileSummary.from_payload(payload)
                self._obs.count("dca.profile_cache_hits")
        if state.profile is None:
            state.profile = profile_program(
                self.module,
                self.config.entry,
                self.config.args,
                max_steps=self.config.max_steps,
                exec_backend=self.config.exec_backend,
            )
            if cache is not None:
                cache.store_profile(
                    digest, key, state.profile.to_payload(),
                    max_steps=self.config.max_steps,
                )
        report.executions += 1
        report.interp_instructions += state.profile.steps

    # -- static and golden stages ---------------------------------------------

    def _prescreen(self, state: _Analysis) -> None:
        """Record every loop's static verdict and decide the loops whose
        proof holds for this workload, before the golden run, so it
        captures no live-outs for them."""
        report = state.report
        state.static_verdicts = StaticCommutativityAnalysis(
            self.module, specs=self.specs
        ).analyze()
        n_schedules = 1 + len(self._schedules.testing_schedules())
        for label, result in report.results.items():
            verdict = state.static_verdicts.get(label)
            if verdict is None:
                continue
            result.static_verdict = verdict.verdict
            result.static_evidence = [str(e) for e in verdict.evidence]
            if result.verdict == NOT_EXERCISED and self._apply_static_verdict(
                state, verdict, result
            ):
                report.static_schedules_saved += n_schedules
        if self._obs.enabled:
            for verdict in state.static_verdicts.values():
                self._obs.count(f"static.verdict.{verdict.verdict}")

    def _golden(self, state: _Analysis) -> None:
        """Verify specs for every testable loop, cache lookups, then the
        golden (observe) run of all of them at once.

        Every testable loop is instrumented, so invocation counts do not
        depend on what the static stage or the cache decided; only the
        pending loops' live-outs are captured.  The golden runtime keeps
        those snapshots, each with its content digest memoized at
        capture.  Replays compare digests first, in process or in a
        worker (the memo travels with the pickled snapshot), and fall
        back to the rtol comparison only when the digests differ."""
        report = state.report
        #: One module-wide equivalence annotation shared by every loop's
        #: VerifySpec: canonicalization keys on struct *types*, and a
        #: declared type means declared everywhere.
        equivalence = tuple(sorted(self._chain_slots.items())) or None
        for label, result in report.results.items():
            if result.decided_by != DECIDED_SELECTION:
                func = self.module.functions[result.function]
                spec = compute_verify_spec(
                    self.module, func, label, state.effects
                )
                spec.equivalence = equivalence
                state.specs[label] = spec
        self._lookup_cached(state)

        observe = build_observe_module(self.module, state.specs)
        strict = self.config.liveout_policy == "strict"
        runtime = DcaRuntime(
            state.specs, capture=state.pending if strict else ()
        )
        executor = create_executor(
            observe,
            runtime=runtime,
            max_steps=self.config.max_steps,
            exec_backend=self.config.exec_backend,
        )
        value = executor.run(self.config.entry, list(self.config.args))
        report.executions += 1
        report.interp_instructions += executor.steps
        add_counters(report, runtime)
        state.golden = runtime.snapshots
        state.golden_outcome = program_outcome(
            executor, value, sorted(self.module.globals), self._chain_slots
        )
        for label in state.specs:
            result = report.results[label]
            result.invocations = runtime.invocation_count(label)
            if result.invocations == 0:
                result.decided_by = DECIDED_SELECTION
        for label, tally in runtime.tallies.items():
            report.results[label].golden_tally = tally
        # A permuted execution of a non-commutative loop may diverge (e.g. a
        # worklist that never drains).  Budget every test run relative to the
        # golden run so divergence is detected as a runtime fault (§IV-E)
        # instead of spinning forever.
        if self.config.max_steps is None:
            state.step_budget = executor.steps * 20 + 200_000
        else:
            state.step_budget = self.config.max_steps

    # -- persistent cache ------------------------------------------------------

    def workload_digest(self) -> str:
        """Content address of this analyzer's workload (module+entry+args)."""
        if self._workload_digest is None:
            self._workload_digest = module_workload_digest(
                self.module, self.config.entry, self.config.args
            )
        return self._workload_digest

    def _lookup_cached(self, state: _Analysis) -> None:
        """Look up every loop the profile run entered and no static proof
        decided: a hit is replayed, the rest are left ``pending``.

        The profile and golden runs execute the same program on the same
        input, so a loop the profile run entered is one the golden run
        will count invocations of."""
        report, cache = state.report, self.cache
        if cache is not None:
            digest = self.workload_digest()
            state.cache_key = self.config.cache_key()
            fingerprint = state.cache_key[0]
        for label in state.specs:
            result = report.results[label]
            if result.verdict != NOT_EXERCISED or (
                label not in state.profile.max_trips
            ):
                continue
            if cache is not None:
                payload = cache.lookup(digest, label, fingerprint)
                if payload is not None:
                    self._apply_cached(payload, result, report)
                    continue
                report.cache.misses += 1
                if cache.has_stale_sibling(digest, label, fingerprint):
                    report.cache.invalidations += 1
            state.pending.append(label)

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
        result.golden_tally = payload["golden"]
        for name, n in result.golden_tally.items():
            setattr(report, name, getattr(report, name) + n)
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
        state: _Analysis,
        label: str,
        result: LoopResult,
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
        report = state.report
        fingerprint, description = state.cache_key
        skipped_delta = {
            reason: count - skipped_before.get(reason, 0)
            for reason, count in report.schedules_skipped.items()
            if count > skipped_before.get(reason, 0)
        }
        stored = self.cache.store(
            self.workload_digest(),
            label,
            fingerprint,
            {
                "result": result.to_payload(),
                "skipped": skipped_delta,
                "golden": result.golden_tally,
            },
            fingerprint_description=description,
        )
        if stored:
            report.cache.stores += 1

    # -- dynamic stage --------------------------------------------------------

    def _test_loops(self, state: _Analysis) -> None:
        """Decide every pending loop by schedule testing on the engine."""
        report = state.report
        report.backend = self._engine.name
        report.jobs = self._engine.jobs
        cache = self.cache
        plans: List[LoopPlan] = []
        for label in state.pending:
            result = report.results[label]
            skipped_before = dict(report.schedules_skipped)
            plan = self._plan_loop(state, label, result)
            if plan is not None:
                plans.append(plan)
            elif cache is not None:
                # Untestable/iterator-only: decided during planning.
                self._store_cached(state, label, result, skipped_before)
        outcomes = self._engine.run(plans)
        for plan in plans:
            result = report.results[plan.label]
            skipped_before = dict(report.schedules_skipped)
            self._merge_loop(state, plan, outcomes[plan.label], result)
            report.add_loop_cost(result.cost)
            if cache is not None:
                self._store_cached(
                    state,
                    plan.label,
                    result,
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
        SEQUENTIAL.  Tiers are recomputed from the profile summary on
        every run — loop-entry replays never carry them.
        """
        report = state.report
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
            dag = build_sccdag(
                func, loop, state.profile.loop(label), idioms
            )
            plan = partition_stages(dag, self.config.max_pipeline_stages)
            if len(plan.stages) >= 2:
                result.tier = TIER_PIPELINE
                result.pipeline_plan = plan.to_dict()
            else:
                result.tier = TIER_SEQUENTIAL
        if self._obs.enabled:
            for tier, n in sorted(report.tier_counts().items()):
                self._obs.count(f"dca.tier.{tier}", n)

    def _apply_static_verdict(
        self, state: _Analysis, verdict: StaticLoopVerdict, result: LoopResult
    ) -> bool:
        """Resolve a loop from its static proof, skipping permutation
        testing.  Applies only when the proof's preconditions hold for
        this workload: the loop must have a payload to permute (else the
        dynamic stage's ``iterator-only`` verdict is the truthful one)
        and must reach two iterations somewhere in the profile run (else
        permutation is vacuous).  A non-commutativity proof additionally
        asserts a *per-exit* live-out difference, so it only stands in
        for the strict policy — under the eventual policy the difference
        may never become observable.
        """
        if not verdict.is_proven or verdict.payload_empty:
            return False
        max_trip = state.profile.max_trips.get(result.label, 0)
        if max_trip < 2:
            return False
        if verdict.verdict == PROVEN_COMMUTATIVE:
            result.verdict = COMMUTATIVE
        elif self.config.liveout_policy == "strict":
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
        n_schedules = 1 + len(self._schedules.testing_schedules())
        spec = state.specs[label]
        try:
            instrumented = build_test_module(
                self.module,
                label,
                spec,
                memory_flow=state.profile.loop(label).memory_flow,
            )
        except OutlineError as exc:
            if exc.reason == "empty-payload":
                result.verdict = ITERATOR_ONLY
            else:
                result.verdict = UNTESTABLE
            result.reason = exc.reason
            self._skip_schedules(state.report, "untestable", n_schedules)
            return None

        strict = self.config.liveout_policy == "strict"
        #: One pickle shared by every task of this loop; each execution
        #: rehydrates a private module copy.
        module_blob = pickle.dumps(instrumented.module)
        global_names = sorted(self.module.globals)
        plan = LoopPlan(label=label, expected_invocations=result.invocations)
        schedules = [IdentitySchedule()] + list(
            self._schedules.testing_schedules()
        )
        for index, schedule in enumerate(schedules):
            plan.tasks.append(
                ScheduleTask(
                    label=label,
                    index=index,
                    entry=self.config.entry,
                    args=list(self.config.args),
                    schedule=schedule,
                    spec=spec,
                    module_blob=module_blob,
                    global_names=global_names,
                    golden=(
                        list(state.golden.get(label, [])) if strict else None
                    ),
                    golden_outcome=None if strict else state.golden_outcome,
                    liveout_policy=self.config.liveout_policy,
                    rtol=self.config.rtol,
                    max_steps=state.step_budget,
                    measure_time=self._obs.measures_time,
                    obs_enabled=self._obs.enabled,
                    inject_fault=self.fault_injection.get(
                        (label, schedule.name)
                    ),
                    exec_backend=self.config.exec_backend,
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
            failure = outcome_failure(identity, expected)
            if failure is not None:
                result.verdict = SPLIT_MISMATCH
                if failure == FAILED_INVOCATIONS:
                    result.reason = "identity replay changed the invocation count"
                else:
                    result.reason = "identity replay diverged from golden reference"
                    result.schedules_tested.append("identity")
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
                failure = outcome_failure(outcome, expected)
                if failure is not None:
                    result.verdict, reason = _SCHEDULE_FAILURES[failure]
                    result.reason = reason.format(name)
                    result.failed_schedule = name
                    self._skip_schedules(report, "short-circuit", n_testing - i)
                    return
            result.verdict = COMMUTATIVE
