"""Differential harness: serial DCA vs process DCA vs the static prover.

The correctness bar for parallelizing our own analyzer is the one the
paper sets for target loops: identical results under any execution
order.  :func:`differential_check` enforces it three ways for one
program:

1. **Backend equality** — the full JSON report (verdicts, provenance,
   reasons, counters, digests) must be byte-identical between the
   serial and the process schedule backends AND across both execution
   backends: interpreter and Python-source codegen (each on both
   schedule backends).  All runs use a zero clock so timing fields
   cannot differ.
2. **Static agreement** — where the static prover *proves* a verdict,
   the dynamic oracle must not contradict it (same contract as
   ``tests/test_static_commutativity.py``): a commutativity proof is
   refuted by ``non-commutative`` / ``runtime-fault`` /
   ``split-mismatch``; a race proof is refuted by a ``commutative``
   verdict on a loop that actually reached two iterations.
3. **Execution accounting** — executed + statically saved + skipped
   schedule executions must cover exactly (1 + testing schedules) per
   eligible loop (see DcaReport.schedules_skipped).

:func:`profile_parity_check` holds the observed runs to the same bar
across execution backends: the complete state of the dependence
profiler and of the cost profiler (every loop detailed) after an
interpreted run and after a run of codegen's profiled lowering must be
equal, and so must the profile summaries the analyzer keeps, each of
which must round-trip exactly through its cache payload.

:func:`cache_differential_check` extends the same bar to the persistent
cache: a cold run populating a fresh cache and a warm run served from it
must both serialize byte-identically to an uncached run, with the warm
run hitting for every dynamically decided loop and reading the profile
summary instead of running the profiler.

Returns a list of human-readable divergence descriptions; an empty list
means the program passed.  Reproduce any CI seed locally with::

    PYTHONPATH=src python -c "
    import sys; sys.path.insert(0, 'tests/fuzz')
    from fuzzgen import generate_program
    from diffharness import differential_check
    print(generate_program(SEED)); print(differential_check(seed=SEED))"
"""

from __future__ import annotations

import difflib
import json
from typing import Dict, List, Optional

import repro.obs as obs
from repro.analysis.commutativity import (
    PROVEN_COMMUTATIVE,
    StaticCommutativityAnalysis,
)
from repro.analysis.dynamic_deps import DynamicDepProfiler, ProfileSummary
from repro.analysis.loops import build_loop_forest
from repro.analysis.specs import default_registry
from repro.cache import AnalysisCache
from repro.api import AnalysisConfig
from repro.core.dca import DcaAnalyzer
from repro.core.report import (
    COMMUTATIVE,
    DECIDED_CACHE,
    DECIDED_DYNAMIC,
    DECIDED_STATIC,
    DECIDED_STATIC_SPECS,
    NON_COMMUTATIVE,
    RUNTIME_FAULT,
    SPLIT_MISMATCH,
)
from repro.core.schedules import ScheduleConfig
from repro.driver import compile_program
from repro.interp import (
    MiniCRuntimeError,
    ProfiledCodegenExecutor,
    Profiler,
    create_executor,
)
from repro.settings import resolve

from fuzzgen import generate_program

__all__ = [
    "accounting_violation",
    "cache_differential_check",
    "differential_check",
    "profile_parity_check",
    "profile_state",
    "specs_soundness_check",
    "tier_map",
    "tiering_differential_check",
]

#: Dynamic verdicts that contradict a static commutativity proof.
_REFUTES_COMMUTATIVE = {NON_COMMUTATIVE, RUNTIME_FAULT, SPLIT_MISMATCH}


def _zero() -> float:
    return 0.0


def _dca(source: str, cache=None, source_text=None, **config):
    """The static-filter-off DCA report of ``source``, analyzed in the
    current obs context."""
    return DcaAnalyzer(
        compile_program(source),
        AnalysisConfig(static_filter=False, **config),
        cache=cache,
        source_text=source_text,
    ).analyze()


def _analyze(source: str, **kwargs):
    """:func:`_dca` on a zero clock."""
    with obs.disabled(clock=_zero):
        return _dca(source, **kwargs)


def accounting_violation(report) -> Optional[str]:
    """Check the schedule-execution accounting invariant on a report.

    ``executed + saved + skipped == eligible × (1 + testing schedules)``
    where eligible loops are those decided statically or dynamically.
    Returns a description of the violation, or None.
    """
    n_schedules = 1 + len(ScheduleConfig.default().testing_schedules())
    eligible = sum(
        1
        for r in report.results.values()
        if r.decided_by in (DECIDED_STATIC, DECIDED_STATIC_SPECS,
                            DECIDED_DYNAMIC, DECIDED_CACHE)
    )
    skipped = sum(report.schedules_skipped.values())
    total = report.schedule_executions + report.static_schedules_saved + skipped
    if total != eligible * n_schedules:
        return (
            f"accounting: executed {report.schedule_executions} + saved "
            f"{report.static_schedules_saved} + skipped {skipped} != "
            f"{eligible} eligible loops x {n_schedules} schedules"
        )
    return None


def differential_check(
    source: Optional[str] = None,
    seed: Optional[int] = None,
    jobs: int = 2,
) -> List[str]:
    """Run one program through all three analyses; return divergences."""
    if source is None:
        source = generate_program(seed)
    problems: List[str] = []

    serial = _analyze(source, backend="serial")
    process = _analyze(source, backend="process", jobs=jobs)
    # Exec-backend axis: the codegen backend must reproduce the
    # interpreter's report byte-for-byte, on both schedule backends.
    exec_variants = [
        (
            "codegen-serial",
            _analyze(source, backend="serial", exec_backend="codegen"),
        ),
        (
            "codegen-process",
            _analyze(
                source, backend="process", jobs=jobs, exec_backend="codegen"
            ),
        ),
    ]

    j_serial = serial.to_json()
    for name, other in [("process", process)] + exec_variants:
        j_other = other.to_json()
        if j_serial != j_other:
            diff = "\n".join(
                list(
                    difflib.unified_diff(
                        j_serial.splitlines(),
                        j_other.splitlines(),
                        fromfile="serial",
                        tofile=name,
                        lineterm="",
                    )
                )[:40]
            )
            problems.append(f"{name} report divergence:\n{diff}")

    # The static side resolves specs the same way the analyzer runs
    # above did (REPRO_SPECS), so the agreement check compares the two
    # stages under one verification semantics.
    static = StaticCommutativityAnalysis(
        compile_program(source),
        specs=default_registry() if resolve("specs") else None,
    ).analyze()
    for label, verdict in static.items():
        if not verdict.is_proven or label not in serial.results:
            continue
        dynamic = serial.results[label]
        if verdict.verdict == PROVEN_COMMUTATIVE:
            if dynamic.verdict in _REFUTES_COMMUTATIVE:
                problems.append(
                    f"{label}: static commutativity proof contradicted by "
                    f"dynamic verdict {dynamic.verdict} ({dynamic.reason})"
                )
        elif dynamic.verdict == COMMUTATIVE and dynamic.max_trip >= 2:
            problems.append(
                f"{label}: static race proof contradicted by dynamic "
                f"verdict {dynamic.verdict}"
            )

    for name, report in (("serial", serial), ("process", process)):
        violation = accounting_violation(report)
        if violation:
            problems.append(f"{name} {violation}")

    return problems


def profile_state(
    source: str,
    exec_backend: str,
    max_steps: Optional[int] = None,
    entry: str = "main",
):
    """Run the dependence and cost profilers over ``source`` on
    ``exec_backend``.

    Returns ``(executor, state)``: ``state`` is everything the
    dependence profiler exposes — its summary: max trips, every loop's
    dependence pairs and memory flow, and one privatization flag per
    carried ``(kind, writer, reader)`` — and the cost profiler's total,
    per-loop and per-iteration costs of every loop, plus the run outcome
    (fault message included) and its step count.
    """
    module = compile_program(source)
    profiler = DynamicDepProfiler(module)
    labels = {
        label
        for func in module.functions.values()
        for label in build_loop_forest(func).loops
    }
    cost = Profiler(iteration_detail_for=labels)
    executor = create_executor(
        module,
        observers=[profiler, cost],
        max_steps=max_steps,
        exec_backend=exec_backend,
    )
    try:
        executor.run(entry, [])
        outcome = "ok"
    except MiniCRuntimeError as exc:
        outcome = f"fault: {exc}"
    state = {
        "outcome": outcome,
        "steps": executor.steps,
        "summary": profiler.summary(executor.steps),
        "total_cost": cost.total_cost,
        "loop_cost": dict(cost.loop_cost),
        "iteration_costs": {
            (label, inv): cost.iteration_costs(label, inv)
            for label in sorted(labels)
            for inv in cost.invocations(label)
        },
    }
    return executor, state


def profile_parity_check(
    source: Optional[str] = None,
    seed: Optional[int] = None,
    max_steps: Optional[int] = None,
) -> List[str]:
    """Interpreter vs codegen dependence and cost profiles for one
    program."""
    if source is None:
        source = generate_program(seed)
    _interp, expected = profile_state(source, "interp", max_steps)
    executor, got = profile_state(source, "codegen", max_steps)
    problems: List[str] = []
    if not isinstance(executor, ProfiledCodegenExecutor):
        problems.append(
            f"codegen profile ran on {type(executor).__name__}, "
            "not the profiled lowering"
        )
    for key in expected:
        if got[key] != expected[key]:
            problems.append(
                f"profile {key} differs: interp {_brief(expected[key])} "
                f"vs codegen {_brief(got[key])}"
            )
    for backend, state in (("interp", expected), ("codegen", got)):
        summary = state["summary"]
        payload = json.loads(json.dumps(summary.to_payload()))
        if ProfileSummary.from_payload(payload) != summary:
            problems.append(
                f"{backend} profile summary does not round-trip through "
                f"its payload: {_brief(payload)}"
            )
    return problems


def _brief(value) -> str:
    text = repr(value)
    return text if len(text) <= 300 else text[:300] + "..."


def specs_soundness_check(
    source: Optional[str] = None,
    seed: Optional[int] = None,
) -> List[str]:
    """Specs-on vs specs-off soundness for one program.

    Verification modulo the spec registry is a *relaxation* of the
    byte-exact comparison: any loop commutative without specs must stay
    commutative with them (flips the other way — unlocked containers —
    are the feature, not a divergence).  The specs-on static prover must
    also not be contradicted by the specs-on dynamic oracle.
    """
    if source is None:
        source = generate_program(seed)
    problems: List[str] = []

    off = _analyze(source, backend="serial", specs=False)
    on = _analyze(source, backend="serial", specs=True)

    if set(on.results) != set(off.results):
        problems.append(
            "specs changed the analyzed loop set: "
            f"{sorted(set(on.results) ^ set(off.results))}"
        )
    for label in sorted(set(off.results) & set(on.results)):
        r_off, r_on = off.results[label], on.results[label]
        if r_off.is_commutative and not r_on.is_commutative:
            problems.append(
                f"{label}: specs-on regressed a commutative loop: "
                f"{r_off.verdict} -> {r_on.verdict} ({r_on.reason})"
            )

    static = StaticCommutativityAnalysis(
        compile_program(source), specs=default_registry()
    )
    for label, verdict in static.analyze().items():
        if not verdict.is_proven or label not in on.results:
            continue
        dynamic = on.results[label]
        if verdict.verdict == PROVEN_COMMUTATIVE:
            if dynamic.verdict in _REFUTES_COMMUTATIVE:
                problems.append(
                    f"{label}: specs-on static proof contradicted by "
                    f"dynamic verdict {dynamic.verdict}"
                )
        elif dynamic.verdict == COMMUTATIVE and dynamic.max_trip >= 2:
            problems.append(
                f"{label}: specs-on static race proof contradicted by "
                f"dynamic verdict {dynamic.verdict}"
            )
    return problems


def cache_differential_check(
    cache_dir: str,
    source: Optional[str] = None,
    seed: Optional[int] = None,
) -> List[str]:
    """Cold-vs-warm persistent-cache equality for one program.

    Runs the program uncached, then twice against a fresh cache
    directory.  Both cached reports must serialize byte-identically to
    the uncached one; the cold run must store (never hit) and the warm
    run must be served entirely from cache — its profile summary and one
    hit per loop the cold run decided dynamically, zero misses — and so
    run no profiler and capture no golden snapshot.  The warm report must also still satisfy the
    schedule-execution accounting invariant, with cache-replayed loops
    counted as eligible.
    """
    if source is None:
        source = generate_program(seed)
    problems: List[str] = []
    kwargs = dict(backend="serial", source_text=source)

    uncached = _analyze(source, **kwargs)
    with AnalysisCache(cache_dir) as cache:
        cold = _analyze(source, cache=cache, **kwargs)
        # Observed, so its snapshots are counted: with every loop a
        # cache hit, no schedule replays, so all would be golden ones.
        with obs.enabled(clock=_zero) as ctx:
            warm = _dca(source, cache=cache, **kwargs)

    j_uncached = uncached.to_json()
    for name, report in (("cold", cold), ("warm", warm)):
        j_other = report.to_json()
        if j_other != j_uncached:
            diff = "\n".join(
                list(
                    difflib.unified_diff(
                        j_uncached.splitlines(),
                        j_other.splitlines(),
                        fromfile="uncached",
                        tofile=name,
                        lineterm="",
                    )
                )[:40]
            )
            problems.append(f"{name} cached report divergence:\n{diff}")

    if cold.cache.hits:
        problems.append(f"cold run hit the empty cache {cold.cache.hits}x")
    expected = sum(
        1
        for r in uncached.results.values()
        if r.decided_by == DECIDED_DYNAMIC
    )
    if cold.cache.stores != expected:
        problems.append(
            f"cold run stored {cold.cache.stores} verdicts, expected "
            f"{expected} (one per dynamically decided loop)"
        )
    if warm.cache.misses or warm.cache.hits != expected:
        problems.append(
            f"warm run not fully cached: {warm.cache.hits} hits / "
            f"{warm.cache.misses} misses, expected {expected} hits / 0"
        )
    elif ctx.metrics.value("dca.snapshots"):
        problems.append(
            f"fully cached warm run took "
            f"{ctx.metrics.value('dca.snapshots')} golden snapshots"
        )
    if ctx.metrics.value("dca.profile_cache_hits") != 1:
        problems.append(
            "fully cached warm run ran the dependence profiler instead "
            "of reading its memoized summary"
        )
    violation = accounting_violation(warm)
    if violation:
        problems.append(f"warm {violation}")
    return problems


def tiering_differential_check(
    source: Optional[str] = None,
    seed: Optional[int] = None,
    jobs: int = 2,
) -> List[str]:
    """Byte-identity of *tiered* reports across every backend pair.

    The tiering stage recomputes tiers from the dependence profile on
    every run, so the same report-identity bar as
    :func:`differential_check` applies to the schema-2 serialization:
    serial vs process schedule backends, each under the interpreter and
    codegen execution backends.  Also checks that
    turning tiering ON never changes a verdict — tiers annotate the
    report, they must not perturb the oracle.
    """
    if source is None:
        source = generate_program(seed)
    problems: List[str] = []

    def analyze(backend: str, exec_backend: str, **kwargs):
        return _analyze(
            source, backend=backend, exec_backend=exec_backend, **kwargs
        )

    tiered = analyze("serial", "interp", tiering=True)
    j_tiered = tiered.to_json()
    variants = [
        ("process-interp", ("process", "interp")),
        ("serial-codegen", ("serial", "codegen")),
        ("process-codegen", ("process", "codegen")),
    ]
    for name, (backend, exec_backend) in variants:
        kwargs = {"tiering": True}
        if backend == "process":
            kwargs["jobs"] = jobs
        other = analyze(backend, exec_backend, **kwargs)
        j_other = other.to_json()
        if j_other != j_tiered:
            diff = "\n".join(
                list(
                    difflib.unified_diff(
                        j_tiered.splitlines(),
                        j_other.splitlines(),
                        fromfile="serial-interp",
                        tofile=name,
                        lineterm="",
                    )
                )[:40]
            )
            problems.append(f"tiered {name} report divergence:\n{diff}")

    untiered = analyze("serial", "interp", tiering=False)
    for label in sorted(untiered.results):
        if tiered.results[label].verdict != untiered.results[label].verdict:
            problems.append(
                f"{label}: tiering changed the verdict "
                f"{untiered.results[label].verdict} -> "
                f"{tiered.results[label].verdict}"
            )
    return problems


def tier_map(source: str) -> Dict[str, Dict[str, object]]:
    """Per-loop {tier, stages} under tiering — corpus tier goldens."""
    report = _analyze(source, backend="serial", tiering=True)
    out: Dict[str, Dict[str, object]] = {}
    for label in sorted(report.results):
        result = report.results[label]
        plan = result.pipeline_plan
        out[label] = {
            "tier": result.tier,
            "stages": len(plan["stages"]) if plan else 0,
        }
    return out


def verdict_map(source: str) -> Dict[str, str]:
    """Per-loop dynamic verdicts (static filter off, specs off) — corpus
    goldens.  Specs are pinned off because specs legitimately flip bag
    loops to commutative; the differential harness still runs every
    corpus program under the ambient ``REPRO_SPECS``."""
    report = _analyze(source, backend="serial", specs=False)
    return {label: report.results[label].verdict for label in sorted(report.results)}
