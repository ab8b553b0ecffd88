"""DCA result types."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Verdict values, roughly ordered from best to worst.
COMMUTATIVE = "commutative"
COMMUTATIVE_VACUOUS = "commutative-vacuous"  # never saw 2+ iterations
NON_COMMUTATIVE = "non-commutative"  # a permuted order changed live-outs
SPLIT_MISMATCH = "split-mismatch"  # identity replay diverged from golden
RUNTIME_FAULT = "runtime-fault"  # permuted execution crashed (§IV-E)
UNTESTABLE = "untestable"  # outlining impossible (shape)
ITERATOR_ONLY = "iterator-only"  # empty payload, nothing to permute
NOT_EXERCISED = "not-exercised"  # workload never entered the loop
EXCLUDED_IO = "excluded-io"  # I/O inside the loop (§IV-E)

#: Verdicts DCA reports as (potentially) parallelizable.
_COMMUTATIVE_VERDICTS = frozenset({COMMUTATIVE, COMMUTATIVE_VACUOUS})

#: Which pipeline stage produced a loop's verdict.
DECIDED_SELECTION = "selection"  # candidate selection (I/O, never ran)
DECIDED_STATIC = "static"  # static pre-screen proof
DECIDED_STATIC_SPECS = "static-specs"  # static proof modulo declared specs
DECIDED_DYNAMIC = "dynamic"  # permutation testing
DECIDED_CACHE = "cache"  # replayed from the persistent analysis cache

#: Provenances counted as "statically decided" in hit-rate accounting.
_STATIC_PROVENANCES = frozenset({DECIDED_STATIC, DECIDED_STATIC_SPECS})

#: Serialized report schema.  Version 1 is the flat per-loop dict every
#: pre-tiering consumer parses; version 2 (emitted only when tiering is
#: on) nests the verdict into a structured object with ``tier`` /
#: ``pipeline_plan`` and stamps ``report_schema_version`` at the top.
#: Version-1 output stays byte-identical to pre-tiering releases.
REPORT_SCHEMA_VERSION = 2

#: Snapshot/verification counters every cost record shares by name: the
#: runtime of one execution, a schedule outcome, a :class:`LoopCost` and
#: the :class:`DcaReport` totals.
COST_COUNTERS = (
    "snapshots_taken",
    "snapshot_nodes",
    "snapshot_bytes",
    "verify_comparisons",
    "mismatches",
)

#: The :data:`COST_COUNTERS` a capture adds to: one golden run's
#: per-loop tally (:attr:`LoopResult.golden_tally`).
SNAPSHOT_COUNTERS = COST_COUNTERS[:3]


def add_counters(target, source) -> None:
    """Add ``source``'s :data:`COST_COUNTERS` into ``target``."""
    for name in COST_COUNTERS:
        setattr(target, name, getattr(target, name) + getattr(source, name))


@dataclass
class LoopCost:
    """Measured cost of deciding one loop (dynamic stage only).

    Populated by :class:`~repro.core.dca.DcaAnalyzer` from always-on
    counters, so the breakdown is available even when ``repro.obs`` is
    disabled.  ``interp_instructions`` counts whole-program instructions
    retired by this loop's schedule executions (the test variant re-runs
    the entire program per schedule, which is exactly the cost the paper's
    dynamic stage pays).
    """

    schedule_executions: int = 0
    interp_instructions: int = 0
    snapshots_taken: int = 0
    snapshot_nodes: int = 0
    snapshot_bytes: int = 0
    verify_comparisons: int = 0
    mismatches: int = 0
    #: schedule name -> wall milliseconds for that execution: the
    #: duration of its ``dca.schedule`` span.  Under the process backend
    #: the span runs in the worker, so the per-loop totals stay
    #: meaningful while the coordinator overlaps executions.
    schedule_times_ms: Dict[str, float] = field(default_factory=dict)
    #: schedule name -> CPU milliseconds for that execution (CPU time of
    #: the thread that ran it).  Comparing the wall and CPU
    #: columns shows where parallel workers spent real compute versus
    #: waiting.
    schedule_cpu_times_ms: Dict[str, float] = field(default_factory=dict)

    @property
    def total_time_ms(self) -> float:
        return sum(self.schedule_times_ms.values())

    @property
    def total_cpu_time_ms(self) -> float:
        return sum(self.schedule_cpu_times_ms.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "schedule_executions": self.schedule_executions,
            "interp_instructions": self.interp_instructions,
            "snapshots_taken": self.snapshots_taken,
            "snapshot_nodes": self.snapshot_nodes,
            "snapshot_bytes": self.snapshot_bytes,
            "verify_comparisons": self.verify_comparisons,
            "mismatches": self.mismatches,
            "schedule_times_ms": {
                name: round(ms, 3)
                for name, ms in self.schedule_times_ms.items()
            },
            "schedule_cpu_times_ms": {
                name: round(ms, 3)
                for name, ms in self.schedule_cpu_times_ms.items()
            },
            "total_time_ms": round(self.total_time_ms, 3),
            "total_cpu_time_ms": round(self.total_cpu_time_ms, 3),
        }

    def to_payload(self) -> Dict[str, object]:
        """Cache representation: like :meth:`to_dict` but with *unrounded*
        times, so a warm replay re-rounds to exactly the cold bytes."""
        payload = self.to_dict()
        payload["schedule_times_ms"] = dict(self.schedule_times_ms)
        payload["schedule_cpu_times_ms"] = dict(self.schedule_cpu_times_ms)
        del payload["total_time_ms"]
        del payload["total_cpu_time_ms"]
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "LoopCost":
        return cls(
            schedule_executions=payload["schedule_executions"],
            interp_instructions=payload["interp_instructions"],
            snapshots_taken=payload["snapshots_taken"],
            snapshot_nodes=payload["snapshot_nodes"],
            snapshot_bytes=payload["snapshot_bytes"],
            verify_comparisons=payload["verify_comparisons"],
            mismatches=payload["mismatches"],
            schedule_times_ms=dict(payload["schedule_times_ms"]),
            schedule_cpu_times_ms=dict(payload["schedule_cpu_times_ms"]),
        )


@dataclass
class LoopResult:
    """DCA's verdict for one source loop."""

    label: str
    function: str
    line: int
    kind: str
    verdict: str
    reason: str = ""
    invocations: int = 0
    max_trip: int = 0
    schedules_tested: List[str] = field(default_factory=list)
    failed_schedule: Optional[str] = None
    #: Which stage decided the verdict (selection / static / dynamic /
    #: cache).  Text outputs show ``cache`` for replayed loops.
    decided_by: str = DECIDED_DYNAMIC
    #: For cache-replayed loops: the stage that *originally* decided the
    #: verdict.  Serialization emits this instead of ``cache`` so warm
    #: reports stay byte-identical to cold ones (same contract as the
    #: report's backend/jobs fields).
    cache_origin: Optional[str] = None
    #: Static pre-screen verdict for this loop, when the pass ran.
    static_verdict: Optional[str] = None
    #: Evidence chain backing the static verdict (rendered strings).
    static_evidence: List[str] = field(default_factory=list)
    #: schedule name -> content digest of the live-out snapshots that
    #: execution captured (strict policy; empty string under eventual).
    schedule_digests: Dict[str, str] = field(default_factory=dict)
    #: Compact description of the first live-out divergence (loop,
    #: invocation, expected/actual digests) when a schedule mismatched.
    mismatch_detail: Optional[Dict[str, object]] = None
    #: Dynamic-stage cost breakdown for this loop.
    cost: LoopCost = field(default_factory=LoopCost)
    #: The golden run's :data:`SNAPSHOT_COUNTERS` for this loop, empty
    #: when it captured none.  Never serialized (the report totals hold
    #: it); a cache entry carries it, so a warm replay adds it back.
    golden_tally: Dict[str, int] = field(default_factory=dict)
    #: Parallelization tier (DOALL/REDUCTION/PIPELINE/SEQUENTIAL) when
    #: tiering ran; ``None`` otherwise.  Never cached: tiers are
    #: recomputed from the fresh dependence profile on every run.
    tier: Optional[str] = None
    #: Serialized :class:`~repro.analysis.sccdag.PipelinePlan` for
    #: PIPELINE-tier loops.
    pipeline_plan: Optional[Dict[str, object]] = None

    @property
    def is_commutative(self) -> bool:
        return self.verdict in _COMMUTATIVE_VERDICTS

    @property
    def used_specs(self) -> bool:
        """Whether declared commutativity specs decided this loop."""
        return self.serialized_decided_by == DECIDED_STATIC_SPECS

    @property
    def qualified_name(self) -> str:
        return self.label

    @property
    def from_cache(self) -> bool:
        return self.decided_by == DECIDED_CACHE

    @property
    def serialized_decided_by(self) -> str:
        """The provenance serialization emits: cache replays report the
        stage that originally decided the loop."""
        return self.cache_origin or self.decided_by

    def verdict_object(self) -> Dict[str, object]:
        """Schema-2 structured verdict: the scattered top-level verdict
        fields gathered into one object."""
        return {
            "value": self.verdict,
            "tier": self.tier,
            "decided_by": self.serialized_decided_by,
            "used_specs": self.used_specs,
            "pipeline_plan": self.pipeline_plan,
        }

    def to_dict(self, schema: int = 1) -> Dict[str, object]:
        """Serialize this loop.  ``schema=1`` (the default, also the
        cache-payload shape) is byte-identical to pre-tiering releases;
        ``schema=2`` nests the verdict, ``decided_by`` included, into
        :meth:`verdict_object` and drops the flat ``decided_by`` and
        ``is_commutative``."""
        data: Dict[str, object] = {
            "label": self.label,
            "function": self.function,
            "line": self.line,
            "kind": self.kind,
            "verdict": self.verdict,
            "reason": self.reason,
            "invocations": self.invocations,
            "max_trip": self.max_trip,
            "schedules_tested": list(self.schedules_tested),
            "failed_schedule": self.failed_schedule,
            "decided_by": self.serialized_decided_by,
            "static_verdict": self.static_verdict,
            "static_evidence": list(self.static_evidence),
            "schedule_digests": dict(self.schedule_digests),
            "mismatch_detail": self.mismatch_detail,
            "is_commutative": self.is_commutative,
            "cost": self.cost.to_dict(),
        }
        if schema >= 2:
            data["verdict"] = self.verdict_object()
            del data["decided_by"], data["is_commutative"]
        return data

    def to_payload(self) -> Dict[str, object]:
        """Cache representation of a decided loop: :meth:`to_dict` with
        unrounded cost times (see :meth:`LoopCost.to_payload`)."""
        payload = self.to_dict()
        del payload["is_commutative"]  # derived
        payload["cost"] = self.cost.to_payload()
        return payload

    def apply_payload(self, payload: Dict[str, object]) -> None:
        """Replay a cached payload into this (freshly selected) result.

        Label/function/line/kind stay as selection set them — they are
        derived from the module, which the cache key already fixes.
        ``decided_by`` becomes ``cache`` with the original stage kept in
        ``cache_origin`` for byte-identical serialization.
        """
        self.verdict = payload["verdict"]
        self.reason = payload["reason"]
        self.invocations = payload["invocations"]
        self.max_trip = payload["max_trip"]
        self.schedules_tested = list(payload["schedules_tested"])
        self.failed_schedule = payload["failed_schedule"]
        self.cache_origin = payload["decided_by"]
        self.decided_by = DECIDED_CACHE
        self.static_verdict = payload["static_verdict"]
        self.static_evidence = list(payload["static_evidence"])
        self.schedule_digests = dict(payload["schedule_digests"])
        self.mismatch_detail = payload["mismatch_detail"]
        self.cost = LoopCost.from_payload(payload["cost"])

    def __str__(self) -> str:
        extra = f" ({self.reason})" if self.reason else ""
        tag = ""
        if self.tier is not None:
            stages = (self.pipeline_plan or {}).get("stages", ())
            detail = f"(stages={len(stages)})" if stages else ""
            tag = f" [{self.tier}{detail}]"
        return f"{self.label}: {self.verdict}{extra}{tag}"


@dataclass
class CacheAccounting:
    """Per-run persistent-cache accounting.

    Deliberately *not* part of report serialization: a warm report must
    stay byte-identical to its cold twin (same contract as the report's
    backend/jobs/exec_backend fields).  Text outputs and
    ``repro cache stats`` surface these numbers instead.
    """

    #: Whether a persistent cache was consulted for this run.
    enabled: bool = False
    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Misses whose (module, loop) had entries under a different config
    #: fingerprint — the cache-invalidation effect of a config change.
    invalidations: int = 0
    #: Schedule executions replayed from the cache instead of executed.
    schedule_executions_avoided: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "enabled": self.enabled,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "schedule_executions_avoided": self.schedule_executions_avoided,
        }


@dataclass
class DcaReport:
    """Full result of one DCA analysis run."""

    entry: str
    #: Which execution backend the analysis asked for (``codegen`` or
    #: ``interp``).  Never serialized, like ``backend``/``jobs`` below:
    #: codegen and interpreted reports must stay byte-identical.
    exec_backend: str
    results: Dict[str, LoopResult] = field(default_factory=dict)
    #: Total interpreted executions performed (golden + tests).
    executions: int = 0
    #: Permutation-schedule executions performed by the dynamic stage.
    schedule_executions: int = 0
    #: Whether the static pre-screen ran for this report.
    static_filter: bool = False
    #: Wall milliseconds per pipeline stage, in run order (selection/
    #: profile/static/golden/dynamic/tiering; static and tiering only
    #: when enabled): each is the duration of its ``dca.<stage>`` span.
    stage_times_ms: Dict[str, float] = field(default_factory=dict)
    #: Interpreter instructions retired across all executions.
    interp_instructions: int = 0
    #: Live-out snapshots actually taken across all executions.  The
    #: golden run captures only loops the dynamic stage replays, so a
    #: statically decided loop adds none; a cache replay adds the
    #: golden tally its entry recorded.
    snapshots_taken: int = 0
    snapshot_nodes: int = 0
    snapshot_bytes: int = 0
    #: Online live-out comparisons performed / failed.
    verify_comparisons: int = 0
    mismatches: int = 0
    #: Schedule executions the static pre-screen avoided: each statically
    #: decided loop skips its full permutation budget (identity + every
    #: perturbing schedule) — an upper bound on the realized saving, since
    #: a non-commutative loop would have short-circuited on first failure.
    static_schedules_saved: int = 0
    #: Schedule executions the dynamic stage skipped, by reason:
    #: ``vacuous`` (loop never reached 2 iterations), ``short-circuit``
    #: (a schedule failed, the rest were skipped), ``untestable``
    #: (outlining impossible).  Together with ``schedule_executions`` and
    #: ``static_schedules_saved`` this accounts for every planned
    #: execution: executed + saved + skipped == eligible loops × (1 +
    #: testing schedules), where eligible loops are those decided
    #: statically or dynamically.
    schedules_skipped: Dict[str, int] = field(default_factory=dict)
    #: Which schedule engine produced this report and with how many
    #: workers.  Deliberately *not* serialized: reports are byte-identical
    #: across backends, and these fields would break that.
    backend: str = "serial"
    jobs: int = 1
    #: Persistent-cache accounting for this run.  Same contract: never
    #: serialized, so warm reports match cold reports byte-for-byte.
    cache: CacheAccounting = field(default_factory=CacheAccounting)
    #: Whether the tiering stage ran.  When True, serialization emits
    #: schema 2 (``report_schema_version`` + structured verdicts); when
    #: False, output stays byte-identical to pre-tiering releases.
    tiering: bool = False

    def loop(self, label: str) -> LoopResult:
        return self.results[label]

    def add_loop_cost(self, cost: LoopCost) -> None:
        """Fold one decided loop's schedule executions into the totals."""
        self.executions += cost.schedule_executions
        self.schedule_executions += cost.schedule_executions
        self.interp_instructions += cost.interp_instructions
        add_counters(self, cost)

    def commutative_loops(self) -> List[LoopResult]:
        return [r for r in self.results.values() if r.is_commutative]

    def commutative_labels(self) -> List[str]:
        return [r.label for r in self.results.values() if r.is_commutative]

    def verdict_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for result in self.results.values():
            counts[result.verdict] = counts.get(result.verdict, 0) + 1
        return counts

    def tier_counts(self) -> Dict[str, int]:
        """Histogram of parallelization tiers (tiered loops only)."""
        counts: Dict[str, int] = {}
        for result in self.results.values():
            if result.tier is not None:
                counts[result.tier] = counts.get(result.tier, 0) + 1
        return counts

    def ledger_columns(self) -> Dict[str, object]:
        """This report's columns of one run-ledger row, as keywords of
        :meth:`repro.obs.RunLedger.record`; the caller adds the kind,
        program, fingerprint and wall time."""
        return {
            "schedule_executions": self.schedule_executions,
            "executions_saved": (
                self.static_schedules_saved
                + self.cache.schedule_executions_avoided
            ),
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "verdicts": self.verdict_counts(),
            "tiers": self.tier_counts() if self.tiering else {},
            "stage_times": self.stage_times_ms,
        }

    def decided_by_counts(self, serialized: bool = False) -> Dict[str, int]:
        """Verdict provenance histogram.  ``serialized=True`` folds cache
        replays into their original stage (the serialization view)."""
        counts: Dict[str, int] = {}
        for result in self.results.values():
            key = result.serialized_decided_by if serialized else (
                result.decided_by
            )
            counts[key] = counts.get(key, 0) + 1
        return counts

    def static_hit_rate(self) -> Tuple[int, int]:
        """(statically decided, loops that reached the testing stage)."""
        tested = [
            r
            for r in self.results.values()
            if r.serialized_decided_by in _STATIC_PROVENANCES
            or r.serialized_decided_by == DECIDED_DYNAMIC
        ]
        hits = sum(
            1 for r in tested if r.serialized_decided_by in _STATIC_PROVENANCES
        )
        return hits, len(tested)

    def metrics_dict(self) -> Dict[str, object]:
        """The report's cost/metrics section (machine-readable)."""
        return {
            "executions": self.executions,
            "schedule_executions": self.schedule_executions,
            "schedule_executions_saved_static": self.static_schedules_saved,
            "schedule_executions_skipped": {
                reason: self.schedules_skipped[reason]
                for reason in sorted(self.schedules_skipped)
            },
            "interp_instructions": self.interp_instructions,
            "snapshots_taken": self.snapshots_taken,
            "snapshot_nodes": self.snapshot_nodes,
            "snapshot_bytes": self.snapshot_bytes,
            "verify_comparisons": self.verify_comparisons,
            "mismatches": self.mismatches,
            "stage_times_ms": {
                name: round(ms, 3)
                for name, ms in self.stage_times_ms.items()
            },
        }

    def to_dict(self) -> Dict[str, object]:
        if not self.tiering:
            # Pre-tiering (schema 1) shape, byte-identical to PR 9.
            return {
                "entry": self.entry,
                "executions": self.executions,
                "schedule_executions": self.schedule_executions,
                "static_filter": self.static_filter,
                "verdict_counts": self.verdict_counts(),
                "decided_by": self.decided_by_counts(serialized=True),
                "metrics": self.metrics_dict(),
                "loops": {
                    label: self.results[label].to_dict()
                    for label in sorted(self.results)
                },
            }
        return {
            "report_schema_version": REPORT_SCHEMA_VERSION,
            "entry": self.entry,
            "executions": self.executions,
            "schedule_executions": self.schedule_executions,
            "static_filter": self.static_filter,
            "verdict_counts": self.verdict_counts(),
            "tier_counts": self.tier_counts(),
            "decided_by": self.decided_by_counts(serialized=True),
            "metrics": self.metrics_dict(),
            "loops": {
                label: self.results[label].to_dict(schema=2)
                for label in sorted(self.results)
            },
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        lines = [f"DCA report (entry={self.entry}, {self.executions} executions)"]
        for label in sorted(self.results):
            lines.append(f"  {self.results[label]}")
        return "\n".join(lines)

    def cost_summary(self) -> str:
        """One-paragraph pipeline cost overview for text output."""
        stages = " | ".join(
            f"{name} {ms:.1f}ms" for name, ms in self.stage_times_ms.items()
        )
        lines = [
            f"pipeline cost: {self.executions} executions, "
            f"{self.interp_instructions} interpreted instructions, "
            f"{self.snapshots_taken} snapshots "
            f"({self.snapshot_bytes / 1024.0:.1f} KiB, "
            f"{self.snapshot_nodes} heap nodes), "
            f"{self.verify_comparisons} live-out comparisons"
        ]
        if stages:
            lines.append(f"stages: {stages}")
        if self.cache.enabled:
            lines.append(
                f"cache: {self.cache.hits} hits / {self.cache.misses} "
                f"misses ({self.cache.invalidations} invalidated), "
                f"{self.cache.schedule_executions_avoided} schedule "
                f"executions avoided"
            )
        return "\n".join(lines)

    def cost_table(self) -> str:
        """Per-loop cost breakdown table (dynamically tested loops)."""
        header = (
            f"{'loop':16s}{'decided':>10s}{'scheds':>8s}{'instrs':>12s}"
            f"{'snaps':>7s}{'bytes':>10s}{'wall_ms':>9s}{'cpu_ms':>9s}"
        )
        lines = [header, "-" * len(header)]
        for label in sorted(self.results):
            result = self.results[label]
            cost = result.cost
            lines.append(
                f"{label:16s}{result.decided_by:>10s}"
                f"{cost.schedule_executions:>8d}"
                f"{cost.interp_instructions:>12d}"
                f"{cost.snapshots_taken:>7d}"
                f"{cost.snapshot_bytes:>10d}"
                f"{cost.total_time_ms:>9.2f}"
                f"{cost.total_cpu_time_ms:>9.2f}"
            )
        return "\n".join(lines)
