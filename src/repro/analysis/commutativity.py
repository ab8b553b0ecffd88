"""Static commutativity prover and loop-carried race detector.

DCA (the dynamic stage) decides commutativity by *executing* permutation
schedules.  Many loops do not need that: their verdict follows from the
IR alone.  This pass classifies every source loop as

* ``PROVEN_COMMUTATIVE`` — permuting payload executions provably cannot
  change any live-out value.  Established by showing (a) every
  loop-carried scalar is an induction variable, an iterator-resident
  pointer chase, or an exactly-reassociable reduction; (b) every other
  live-out scalar takes an order-insensitive final value; and (c) all
  heap effects are affine array accesses with no cross-iteration
  conflict (recognized integer histograms are tolerated — integer
  ``+``/``*`` commute even on colliding locations).
* ``PROVEN_NONCOMMUTATIVE`` — a loop-carried race on observable state is
  certain: ordered I/O inside the loop, or a live-out scalar that every
  iteration overwrites with provably distinct values (an output race —
  the final value is whichever iteration ran last).
* ``UNKNOWN`` — neither proof goes through (unresolved aliasing,
  pointer-chased heap writes, floating-point reductions whose
  reassociation error is workload-dependent, ...).  These loops are
  exactly the ones the dynamic stage must test.

Soundness contract (checked by ``tests/test_static_commutativity.py``
against the dynamic oracle on the benchmark suites): whenever dynamic
DCA reaches a real verdict for a loop — ``commutative`` after full
testing or ``non-commutative``/``runtime-fault`` from a perturbed
schedule — a ``PROVEN_*`` claim for that loop agrees with it.  A
``PROVEN_NONCOMMUTATIVE`` claim is certain only for executions reaching
two iterations and for per-exit (strict) live-out comparison, so
:class:`repro.core.dca.DcaAnalyzer` gates its use of the static verdict
on the profiled trip count and the live-out policy.

Every verdict carries a chain of :class:`Evidence` facts so that the
diagnostics engine (:mod:`repro.analysis.diagnostics`) can explain *why*
— turning DCA's binary answer into an explainable report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.affine import (
    AffineContext,
    _add,
    _scale,
    cross_iteration_dependence,
)
from repro.analysis.alias import PointsTo
from repro.analysis.liveness import LoopLiveness
from repro.analysis.loops import Loop, build_loop_forest
from repro.analysis.purity import EffectAnalysis
from repro.analysis.reductions import (
    CARRIED_UNKNOWN,
    INDUCTION,
    POINTER_CHASE,
    REDUCTION_ADD,
    REDUCTION_MINMAX,
    REDUCTION_MINMAX_COND,
    REDUCTION_MUL,
    classify_loop,
    conditional_blocks,
)
from repro.analysis.specs import (
    AnnotationReport,
    SpecRegistry,
    check_annotations,
    recognize_chain_inserts,
)
from repro.ir.function import Function, Module
from repro.ir.instructions import (
    BinOp,
    Call,
    CallBuiltin,
    LoadGlobal,
    Mov,
    NewArray,
    NewStruct,
    Reg,
    Ret,
    SetField,
    SetIndex,
    StoreGlobal,
    UnOp,
)
from repro.lang.builtins import builtin_is_pure
from repro.lang.types import ArrayType, IntType

__all__ = [
    "Evidence",
    "PROVEN_COMMUTATIVE",
    "PROVEN_NONCOMMUTATIVE",
    "StaticCommutativityAnalysis",
    "StaticLoopVerdict",
    "UNKNOWN",
]

#: Static verdicts.
PROVEN_COMMUTATIVE = "proven-commutative"
PROVEN_NONCOMMUTATIVE = "proven-noncommutative"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Evidence:
    """One structured fact supporting (or blocking) a static verdict.

    ``kind`` is a stable machine tag; ``detail`` the human sentence;
    ``site`` an optional ``block[index]`` anchor inside the loop.
    """

    kind: str
    detail: str
    site: Optional[str] = None

    def __str__(self) -> str:
        anchor = f" @ {self.site}" if self.site else ""
        return f"[{self.kind}] {self.detail}{anchor}"


@dataclass
class StaticLoopVerdict:
    """The static classifier's result for one source loop."""

    label: str
    function: str
    line: int
    kind: str
    verdict: str
    #: Facts establishing the verdict (for PROVEN_*) or the blockers that
    #: prevented a proof (for UNKNOWN).
    evidence: List[Evidence] = field(default_factory=list)
    #: The loop has no payload to permute (statically); the dynamic stage
    #: reports such loops as ``iterator-only``, so the pre-screen defers.
    payload_empty: bool = False
    #: The proof consumed declared commutativity specs: it holds modulo
    #: the declared equivalence (multiset containers, monoid values) and
    #: therefore only stands in for a spec-aware verification run.
    used_specs: bool = False

    @property
    def is_proven(self) -> bool:
        return self.verdict != UNKNOWN

    def headline(self) -> str:
        """One-line justification (the strongest piece of evidence)."""
        return self.evidence[0].detail if self.evidence else self.verdict

    def to_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "label": self.label,
            "function": self.function,
            "line": self.line,
            "kind": self.kind,
            "verdict": self.verdict,
            "payload_empty": self.payload_empty,
            "evidence": [
                {"kind": e.kind, "detail": e.detail, "site": e.site}
                for e in self.evidence
            ],
        }
        # Emitted only when set, so specs-off serializations are
        # byte-identical to the pre-spec format.
        if self.used_specs:
            row["used_specs"] = True
        return row

    def __str__(self) -> str:
        return f"{self.label}: {self.verdict} ({self.headline()})"


#: Carried-scalar classes whose final value is exact under any payload
#: order: min/max pick the same extremum regardless of evaluation order
#: (for floats too), and the recognizer guarantees the accumulator never
#: escapes its own update chain, so intermediate values cannot leak.
_ORDER_INVARIANT_CARRIED = frozenset(
    {REDUCTION_MINMAX, REDUCTION_MINMAX_COND}
)
#: Reduction classes exact only over integers (float reassociation
#: changes rounding, which the dynamic stage may or may not tolerate
#: depending on ``rtol`` — not provable statically).
_INT_ONLY_REDUCTIONS = frozenset({REDUCTION_ADD, REDUCTION_MUL})


class StaticCommutativityAnalysis:
    """Classify every source loop of a module statically.

    Shares one points-to graph and one effect analysis across all loops;
    per-function analyses (reaching defs, control dependence, liveness)
    come from the function's memo
    (:func:`repro.analysis.loops.function_analyses`), so each is computed
    once per function.
    """

    def __init__(self, module: Module, specs: Optional[SpecRegistry] = None):
        self.module = module
        self.effects = EffectAnalysis(module)
        self.points_to = PointsTo(module)
        #: Commutativity-spec registry (None: specs-off, the default —
        #: verdicts are then byte-identical to the pre-spec prover).
        self.specs = specs
        #: Validated ``commutative`` annotations (function name ->
        #: AnnotationReport).  Only *sound* declarations are ever
        #: consumed; unsound ones surface through ``repro lint``, never
        #: silently through a waiver.
        self.annotations: Dict[str, AnnotationReport] = (
            check_annotations(module, specs, self.effects, self.points_to)
            if specs is not None
            else {}
        )
        self.verdicts: Dict[str, StaticLoopVerdict] = {}
        self._analyzed = False

    def analyze(self) -> Dict[str, StaticLoopVerdict]:
        if self._analyzed:
            return self.verdicts
        for func in self.module.functions.values():
            forest = build_loop_forest(func)
            for label, meta in func.loops.items():
                if label in forest.loops:
                    self.verdicts[label] = self._classify(
                        func, forest.loops[label], meta
                    )
        self._analyzed = True
        return self.verdicts

    def proven(self) -> Dict[str, StaticLoopVerdict]:
        return {
            label: v for label, v in self.analyze().items() if v.is_proven
        }

    # -- per-loop classification ----------------------------------------------

    def _classify(self, func: Function, loop: Loop, meta) -> StaticLoopVerdict:
        # Imported lazily: repro.core imports repro.analysis at package
        # init, so a module-level import here would be circular.
        from repro.core.iterator_recognition import separate

        verdict = StaticLoopVerdict(
            label=loop.label,
            function=func.name,
            line=meta.line,
            kind=meta.kind,
            verdict=UNKNOWN,
        )

        # Ordered side effects: any I/O inside the loop (or a callee) is
        # emitted in iteration order — permuting iterations permutes the
        # observable output stream.  (Matches DCA's §IV-E exclusion.)
        io_site = self._io_site(func, loop)
        if io_site is not None:
            verdict.verdict = PROVEN_NONCOMMUTATIVE
            verdict.evidence.append(
                Evidence(
                    kind="ordered-io",
                    detail="loop performs I/O in iteration order; permuting "
                    "iterations reorders observable output",
                    site=io_site,
                )
            )
            return verdict

        sep = separate(func, loop)
        verdict.payload_empty = sep.payload_is_empty
        if sep.has_return:
            verdict.evidence.append(
                Evidence(
                    kind="loop-return",
                    detail="loop contains a return; not analyzable as a "
                    "permutable iteration space",
                )
            )
            return verdict

        idioms = classify_loop(func, loop)
        live_out_scalars = LoopLiveness(func).live_out_scalars(loop)
        actx = AffineContext(func, loop)
        tested_ivs = actx.tested_ivs()
        iv_steps = {reg: step for reg, (_l, step) in actx.ivs.items()}

        # ---- loop-carried race: scalar output race on a live-out --------
        race = self._scalar_output_race(
            func, loop, sep, idioms, live_out_scalars, actx, tested_ivs,
            iv_steps, conditional_blocks(func, loop),
        )
        if race is not None:
            verdict.verdict = PROVEN_NONCOMMUTATIVE
            verdict.evidence.append(race)
            return verdict

        # ---- commutativity proof ----------------------------------------
        blockers: List[Evidence] = []
        facts: List[Evidence] = []

        # Declared-commutative operations (specs-on only): recognized
        # chain prepends contribute waived instruction sites and a
        # carried head register the scalar rules accept as a fact.  The
        # resulting proof holds modulo the declared equivalence, which
        # ``used_specs`` records for the consumer.
        waived: Set[Tuple[str, int]] = set()
        spec_heads: Set[Reg] = set()
        if self.specs is not None:
            for ins in recognize_chain_inserts(
                func, loop, self.specs, self.module
            ):
                waived |= ins.sites
                if ins.head_reg is not None:
                    spec_heads.add(ins.head_reg)
                head = (
                    ins.head_reg.name
                    if ins.head_reg is not None
                    else f"@{ins.head_global}"
                )
                facts.append(
                    Evidence(
                        kind="spec-chain-insert",
                        detail=f"loop prepends to declared container "
                        f"{ins.struct} through head {head}; the chain "
                        "denotes the multiset of its node contents, "
                        "which any iteration order builds identically",
                    )
                )

        blockers.extend(self._effect_blockers(func, loop, waived, facts))
        blockers.extend(
            self._scalar_blockers(
                func, loop, sep, idioms, live_out_scalars, actx, facts,
                spec_heads,
            )
        )
        if not any(b.kind.startswith("callee") or b.kind in (
            "allocation", "global-write", "pointer-write"
        ) for b in blockers):
            blockers.extend(
                self._access_blockers(
                    func, loop, idioms, actx, tested_ivs, iv_steps, facts
                )
            )

        if blockers:
            verdict.evidence.extend(blockers)
            return verdict

        verdict.verdict = PROVEN_COMMUTATIVE
        verdict.used_specs = any(
            e.kind.startswith("spec-") for e in facts
        )
        if not facts:
            facts.append(
                Evidence(
                    kind="independent-iterations",
                    detail="iterations neither write shared state nor "
                    "carry values between each other",
                )
            )
        facts.insert(
            0,
            Evidence(
                kind="proof",
                detail="all live-outs are provably order-invariant under "
                "any permutation of payload executions",
            ),
        )
        verdict.evidence.extend(facts)
        return verdict

    # -- helpers --------------------------------------------------------------

    def _io_site(self, func: Function, loop: Loop) -> Optional[str]:
        for name in sorted(loop.blocks):
            for idx, instr in enumerate(func.blocks[name].instrs):
                if isinstance(instr, CallBuiltin) and not builtin_is_pure(
                    instr.func
                ):
                    return f"{name}[{idx}]"
                if isinstance(instr, Call):
                    eff = self.effects.effects.get(instr.func)
                    if eff is None or eff.does_io:
                        return f"{name}[{idx}]"
        return None

    def _def_sites(
        self, func: Function, loop: Loop, reg: Reg
    ) -> List[Tuple[str, int]]:
        sites = []
        for name in sorted(loop.blocks):
            for idx, instr in enumerate(func.blocks[name].instrs):
                if reg in instr.defs():
                    sites.append((name, idx))
        return sites

    def _used_in_loop(self, func: Function, loop: Loop, reg: Reg) -> bool:
        return any(
            reg in instr.uses()
            for name in loop.blocks
            for instr in func.blocks[name].instrs
        )

    def _def_expr(self, actx: AffineContext, instr, site):
        """Affine expression computed by a defining instruction."""
        if isinstance(instr, Mov):
            return actx.expr_of(instr.src, site)
        if isinstance(instr, BinOp) and instr.op in ("+", "-", "*"):
            lhs = actx.expr_of(instr.lhs, site)
            rhs = actx.expr_of(instr.rhs, site)
            if lhs is None or rhs is None:
                return None
            if instr.op in ("+", "-"):
                return _add(lhs, rhs, 1 if instr.op == "+" else -1)
            cl = lhs.get(None, 0) if all(k is None for k in lhs) else None
            cr = rhs.get(None, 0) if all(k is None for k in rhs) else None
            if cl is not None:
                return _scale(rhs, cl)
            if cr is not None:
                return _scale(lhs, cr)
            return None
        if isinstance(instr, UnOp) and instr.op == "-":
            inner = actx.expr_of(instr.operand, site)
            return None if inner is None else _scale(inner, -1)
        return None

    def _scalar_output_race(
        self,
        func: Function,
        loop: Loop,
        sep,
        idioms,
        live_out_scalars: List[Reg],
        actx: AffineContext,
        tested_ivs: Set[Reg],
        iv_steps: Dict[Reg, Optional[int]],
        conditional_blocks: Set[str],
    ) -> Optional[Evidence]:
        """A live-out scalar every iteration overwrites with provably
        distinct values: the final value is decided by execution order.

        The proof needs (a) exactly one unconditional payload-resident
        def, (b) no in-loop reads of the register (no recurrence), (c) an
        integer affine value with a nonzero coefficient on this loop's
        induction variable whose step is statically a nonzero constant —
        distinct iterations then store distinct values, so reversing the
        schedule provably changes the live-out.
        """
        for reg in live_out_scalars:
            if reg in idioms.scalars:  # carried: handled by the idiom rules
                continue
            if not isinstance(func.reg_types.get(reg), IntType):
                continue
            if self._used_in_loop(func, loop, reg):
                continue
            sites = self._def_sites(func, loop, reg)
            if len(sites) != 1:
                continue
            site = sites[0]
            if site[0] in conditional_blocks or site not in sep.payload_sites:
                continue
            instr = func.blocks[site[0]].instrs[site[1]]
            expr = self._def_expr(actx, instr, site)
            if expr is None:
                continue
            # Distinctness: the value's per-iteration derivative is the
            # sum of coeff·step over this loop's induction variables
            # (invariant atoms cancel between iterations).  A nonzero
            # derivative means iteration t and iteration t' store
            # different values whenever t != t', so the reversed
            # schedule provably changes the live-out.  Inner-loop ivs or
            # unknown steps defeat the argument.
            varying = [k for k, v in expr.items() if k is not None and v != 0]
            derivative = 0
            provable = bool(varying)
            for k in varying:
                if k in tested_ivs:
                    step = iv_steps.get(k)
                    if step in (None, 0):
                        provable = False
                        break
                    derivative += expr[k] * step
                elif k in actx.ivs:  # an inner loop's induction variable
                    provable = False
                    break
            if not provable or derivative == 0:
                continue
            return Evidence(
                kind="scalar-output-race",
                detail=f"live-out scalar {reg} is overwritten every "
                "iteration with iteration-dependent values; the last "
                "iteration to run decides its final value",
                site=f"{site[0]}[{site[1]}]",
            )
        return None

    def _effect_blockers(
        self,
        func: Function,
        loop: Loop,
        waived: Optional[Set[Tuple[str, int]]] = None,
        facts: Optional[List[Evidence]] = None,
    ) -> List[Evidence]:
        """Instruction kinds that put the loop beyond the prover's reach.

        ``waived`` sites are the footprint of a recognized declared
        operation (see :func:`repro.analysis.specs.recognize_chain_inserts`)
        and are skipped: they are commutative *by declaration*, under the
        equivalence the declaration names.  Calls to functions whose
        ``commutative`` annotation validated are likewise waived when the
        loop cannot observe the callee's state out-of-band
        (:meth:`_callee_waivable`).
        """
        waived = waived or set()
        blockers: List[Evidence] = []
        loop_writes_heap = any(
            isinstance(instr, (SetIndex, SetField))
            for name in loop.blocks
            for instr in func.blocks[name].instrs
        )
        for name in sorted(loop.blocks):
            for idx, instr in enumerate(func.blocks[name].instrs):
                site = f"{name}[{idx}]"
                if (name, idx) in waived:
                    continue
                if isinstance(instr, (NewStruct, NewArray)):
                    blockers.append(
                        Evidence(
                            kind="allocation",
                            detail="loop allocates; object identity and "
                            "linkage order are not statically tractable",
                            site=site,
                        )
                    )
                elif isinstance(instr, StoreGlobal):
                    blockers.append(
                        Evidence(
                            kind="global-write",
                            detail=f"loop writes global @{instr.name} "
                            "through memory; carried-value analysis "
                            "does not track globals",
                            site=site,
                        )
                    )
                elif isinstance(instr, SetField):
                    blockers.append(
                        Evidence(
                            kind="pointer-write",
                            detail="loop writes a struct field; "
                            "pointer-based heap updates are beyond the "
                            "affine dependence test",
                            site=site,
                        )
                    )
                elif isinstance(instr, Ret):
                    blockers.append(
                        Evidence(
                            kind="loop-return",
                            detail="loop contains a return",
                            site=site,
                        )
                    )
                elif isinstance(instr, Call):
                    eff = self.effects.effects.get(instr.func)
                    if eff is None:
                        blockers.append(
                            Evidence(
                                kind="callee-unknown",
                                detail=f"call to unknown function "
                                f"{instr.func}",
                                site=site,
                            )
                        )
                        continue
                    has_effects = (
                        eff.writes_heap
                        or eff.globals_written
                        or eff.allocates
                    )
                    waived_call = False
                    if has_effects:
                        report = self.annotations.get(instr.func)
                        if (
                            report is not None
                            and report.ok
                            and self._callee_waivable(func, loop, instr, report)
                        ):
                            waived_call = True
                            if facts is not None:
                                facts.append(
                                    Evidence(
                                        kind="spec-callee",
                                        detail=f"callee {instr.func} "
                                        f"validated as a {report.kind} "
                                        "spec; its effects commute by "
                                        "declaration",
                                        site=site,
                                    )
                                )
                        else:
                            blockers.append(
                                Evidence(
                                    kind="callee-effects",
                                    detail=f"callee {instr.func} has side "
                                    "effects (heap/global writes or "
                                    "allocation)",
                                    site=site,
                                )
                            )
                    # Never waived: a callee that reads heap the loop
                    # writes can observe iteration order no matter what
                    # its own (declared) effects are.
                    if (
                        (waived_call or not has_effects)
                        and eff.reads_heap
                        and loop_writes_heap
                    ):
                        blockers.append(
                            Evidence(
                                kind="callee-reads-heap",
                                detail=f"callee {instr.func} reads the "
                                "heap while the loop writes it; the "
                                "dependence test cannot see into calls",
                                site=site,
                            )
                        )
        return blockers

    def _callee_waivable(
        self, func: Function, loop: Loop, call: Call, report: AnnotationReport
    ) -> bool:
        """Whether a validated ``commutative`` callee may be waived *at
        this call site*.

        The annotation check establishes the callee's footprint shape;
        this check establishes that the loop cannot observe the state the
        declaration abstracts:

        * pure / fresh-alloc: always (the heap-read interaction is
          handled separately by the ``callee-reads-heap`` blocker);
        * monoid / prng: the state global's *intermediate* values track
          execution order, so nothing else in the loop may read or write
          it — no direct load/store, no other callee touching it — and
          the call's result (which may leak the intermediate value) must
          be unused.  Multiple call sites of the *same* function compose
          the same update and stay order-invariant.
        """
        if report.kind in ("pure", "fresh-alloc"):
            return True
        gname = report.state_global
        if gname is None:
            return False
        if call.dest is not None and self._used_in_loop(
            func, loop, call.dest
        ):
            return False
        for name in loop.blocks:
            for instr in func.blocks[name].instrs:
                if isinstance(instr, (LoadGlobal, StoreGlobal)):
                    if instr.name == gname:
                        return False
                elif isinstance(instr, Call) and instr.func != call.func:
                    ceff = self.effects.effects.get(instr.func)
                    if ceff is None or gname in (
                        ceff.globals_read | ceff.globals_written
                    ):
                        return False
        return True

    def _scalar_blockers(
        self,
        func: Function,
        loop: Loop,
        sep,
        idioms,
        live_out_scalars: List[Reg],
        actx: AffineContext,
        facts: List[Evidence],
        spec_heads: Optional[Set[Reg]] = None,
    ) -> List[Evidence]:
        blockers: List[Evidence] = []
        spec_heads = spec_heads or set()
        for reg, klass in sorted(
            idioms.scalars.items(), key=lambda kv: kv[0].name
        ):
            if reg in spec_heads:
                # The carried head of a recognized declared-container
                # prepend: its value is order-sensitive (whichever node
                # was linked last), but the declared equivalence erases
                # exactly that — the chain compares as a multiset.
                facts.append(
                    Evidence(
                        kind="spec-chain-head",
                        detail=f"carried pointer {reg} heads a declared "
                        "order-insensitive container; compared as a "
                        "multiset of node contents",
                    )
                )
                continue
            if klass == INDUCTION:
                # An induction's *final* value is always order-invariant,
                # but its intermediate values track the executed order,
                # not the iteration index.  Safe only when the induction
                # lives in the iterator (replayed in program order, so
                # per-iteration values stay correctly bound) or when
                # nothing but its own update chain reads it.
                dsites = set(self._def_sites(func, loop, reg))
                uses_outside = any(
                    reg in instr.uses()
                    for name in loop.blocks
                    for idx, instr in enumerate(func.blocks[name].instrs)
                    if (name, idx) not in dsites
                )
                if all(s in sep.iterator_sites for s in dsites):
                    facts.append(
                        Evidence(
                            kind="carried-induction",
                            detail=f"carried scalar {reg} is an "
                            "iterator-resident induction, replayed in "
                            "program order",
                        )
                    )
                elif not uses_outside:
                    facts.append(
                        Evidence(
                            kind="carried-induction",
                            detail=f"carried scalar {reg} is a pure "
                            "counter; its final value is the iteration "
                            "count regardless of order",
                        )
                    )
                else:
                    blockers.append(
                        Evidence(
                            kind="payload-induction",
                            detail=f"induction {reg} advances inside the "
                            "payload and its intermediate values are read "
                            "by other instructions; those values track "
                            "execution order",
                        )
                    )
            elif klass in _ORDER_INVARIANT_CARRIED:
                facts.append(
                    Evidence(
                        kind=f"carried-{klass}",
                        detail=f"carried scalar {reg} is a {klass}; its "
                        "final value is order-invariant",
                    )
                )
            elif klass in _INT_ONLY_REDUCTIONS:
                if isinstance(func.reg_types.get(reg), IntType):
                    facts.append(
                        Evidence(
                            kind=f"carried-{klass}",
                            detail=f"carried scalar {reg} is an integer "
                            f"{klass}; exact under reassociation",
                        )
                    )
                else:
                    blockers.append(
                        Evidence(
                            kind="float-reduction",
                            detail=f"carried scalar {reg} is a "
                            "floating-point reduction; reassociation "
                            "error is workload-dependent",
                        )
                    )
            elif klass == POINTER_CHASE:
                dsites = self._def_sites(func, loop, reg)
                if all(s in sep.iterator_sites for s in dsites):
                    facts.append(
                        Evidence(
                            kind="carried-pointer-chase",
                            detail=f"carried pointer {reg} belongs to the "
                            "iterator, which is replayed in program order",
                        )
                    )
                else:
                    blockers.append(
                        Evidence(
                            kind="payload-pointer-chase",
                            detail=f"carried pointer {reg} advances inside "
                            "the payload; traversal order is not provably "
                            "order-invariant",
                        )
                    )
            else:
                blockers.append(
                    Evidence(
                        kind="carried-dependence",
                        detail=f"loop-carried flow dependence on scalar "
                        f"{reg} ({klass}); iterations are not independent",
                    )
                )

        carried = set(idioms.scalars)
        for reg in live_out_scalars:
            if reg in carried:
                continue
            dsites = self._def_sites(func, loop, reg)
            if dsites and all(s in sep.iterator_sites for s in dsites):
                continue  # iterator value: replayed in original order
            # A def is order-safe when every site stores the *same*
            # loop-invariant value: the live-out then does not depend on
            # which payload execution ran last.  (Affine atoms other
            # than induction variables are loop-invariant registers by
            # construction of ``expr_of``.)
            exprs = [
                self._def_expr(actx, func.blocks[s[0]].instrs[s[1]], s)
                for s in dsites
            ]
            invariant = [
                e
                for e in exprs
                if e is not None
                and not any(
                    k in actx.ivs and v != 0
                    for k, v in e.items()
                    if k is not None
                )
            ]
            if (
                dsites
                and len(invariant) == len(exprs)
                and all(e == exprs[0] for e in exprs)
            ):
                facts.append(
                    Evidence(
                        kind="invariant-live-out",
                        detail=f"live-out scalar {reg} is assigned the "
                        "same loop-invariant value by every iteration",
                    )
                )
                continue
            blockers.append(
                Evidence(
                    kind="last-value",
                    detail=f"live-out scalar {reg} keeps the value of "
                    "whichever payload execution ran last",
                )
            )
        return blockers

    def _access_blockers(
        self,
        func: Function,
        loop: Loop,
        idioms,
        actx: AffineContext,
        tested_ivs: Set[Reg],
        iv_steps: Dict[Reg, Optional[int]],
        facts: List[Evidence],
    ) -> List[Evidence]:
        has_array_write = any(
            isinstance(instr, SetIndex)
            for name in loop.blocks
            for instr in func.blocks[name].instrs
        )
        if not has_array_write:
            return []

        blockers: List[Evidence] = []
        hist_sites, hist_arrays, hist_blockers = self._histograms(func, idioms)
        blockers.extend(hist_blockers)

        accesses = actx.collect_accesses()
        if accesses is None:
            blockers.append(
                Evidence(
                    kind="unresolved-access",
                    detail="an array access has no statically resolvable "
                    "base (aliasing through loop-varying references)",
                )
            )
            return blockers

        plain = []
        for acc in accesses:
            if acc.site in hist_sites:
                continue
            if any(sub is None for sub in acc.subscripts):
                blockers.append(
                    Evidence(
                        kind="non-affine-subscript",
                        detail=f"subscript of access to {acc.root} is not "
                        "affine in the loop's induction variables",
                        site=f"{acc.site[0]}[{acc.site[1]}]",
                    )
                )
                continue
            plain.append(acc)
        if blockers:
            return blockers

        for i, a in enumerate(plain):
            for b in plain[i:]:
                if not (a.is_write or b.is_write):
                    continue
                if not self.points_to.may_alias(func.name, a.root, b.root):
                    continue
                if a.root != b.root:
                    blockers.append(
                        Evidence(
                            kind="may-alias",
                            detail=f"{a.root} and {b.root} may reference "
                            "the same array; no subscript relation exists "
                            "between distinct names",
                        )
                    )
                elif cross_iteration_dependence(a, b, tested_ivs, iv_steps):
                    blockers.append(
                        Evidence(
                            kind="loop-carried-access",
                            detail=f"accesses to {a.root} may touch the "
                            "same element in different iterations",
                            site=f"{a.site[0]}[{a.site[1]}] vs "
                            f"{b.site[0]}[{b.site[1]}]",
                        )
                    )

        # A plain access to an array that also receives histogram updates
        # would race with them; reject the combination conservatively.
        for acc in plain:
            for hist_reg in hist_arrays:
                if self.points_to.may_alias(func.name, acc.root, hist_reg):
                    blockers.append(
                        Evidence(
                            kind="histogram-mixed-access",
                            detail=f"array {hist_reg} receives histogram "
                            f"updates but is also accessed directly via "
                            f"{acc.root}",
                            site=f"{acc.site[0]}[{acc.site[1]}]",
                        )
                    )

        if blockers:
            return blockers

        if hist_arrays:
            facts.append(
                Evidence(
                    kind="histogram",
                    detail="histogram updates use commuting integer "
                    "operations; colliding indices still produce "
                    "order-invariant totals",
                )
            )
        if plain:
            facts.append(
                Evidence(
                    kind="affine-independent",
                    detail="every array access is affine and no two "
                    "iterations touch the same element",
                )
            )
        return blockers

    def _histograms(self, func: Function, idioms):
        """Validated histogram sites: integer arrays, one commuting op
        family per array (``+``/``-`` mix, or ``*`` alone)."""
        blockers: List[Evidence] = []
        per_array: Dict[Reg, Set[str]] = {}
        for hist in idioms.histograms:
            per_array.setdefault(hist.array, set()).add(hist.op)
        valid_arrays: Set[Reg] = set()
        for array, ops in per_array.items():
            atype = func.reg_types.get(array)
            elem_int = isinstance(atype, ArrayType) and isinstance(
                atype.elem, IntType
            )
            commuting = ops <= {"+", "-"} or ops == {"*"}
            if elem_int and commuting:
                valid_arrays.add(array)
            else:
                blockers.append(
                    Evidence(
                        kind="histogram-unprovable",
                        detail=f"histogram on {array} is not exactly "
                        "reassociable "
                        f"({'float elements' if not elem_int else 'mixed ops'})",
                    )
                )
        sites = {
            site
            for hist in idioms.histograms
            if hist.array in valid_arrays
            for site in (hist.get_site, hist.set_site)
        }
        return sites, valid_arrays, blockers
