"""Commutativity specs: declared-commutative operations and their checks.

The dynamic verifier compares live-out snapshots byte-for-byte, so a loop
that prepends to a linked container is judged non-commutative even when
nothing in the program ever observes the chain's order (PLDS ``otter``,
``hash``).  CPF solves the analogous problem for C with
``CommutativeLibsAA`` — a curated list of library operations (``malloc``,
``rand``, set/hash inserts) declared commutative — and Koskinen & Bansal
ground the semantics: two operations commute when the resulting states
are equal *under an abstraction*, not bitwise.

This module is that layer for MiniC.  It has three parts:

1. **The registry** (:class:`SpecRegistry` / :func:`default_registry`):
   declarative :class:`CommutativitySpec` records for the idioms MiniC
   programs inline where C would call a library — order-insensitive
   container inserts (keyed by exact struct signature, the analogue of
   matching a library symbol), commutative-monoid accumulators,
   fresh allocation, and self-composing PRNG state steps.  Each spec
   names its effect footprint and the equivalence class under which the
   operation commutes.

2. **The chain-insert recognizer** (:func:`recognize_chain_inserts`):
   a syntactic/points-to match for the prepend idiom ``n = new T;
   n.f = ...; n.link = head; head = n`` against a declared container
   type.  The static prover waives the matched instruction sites (they
   are exactly the declared footprint) and the lint pass reuses the
   recognizer with a widened registry to suggest declarations.

3. **The annotation checker** (:func:`check_annotations`): user functions
   may be declared ``commutative func ...``; the declaration is *checked*,
   never trusted.  A bottom-up interprocedural effect-summary pass —
   composing :class:`repro.analysis.purity.EffectAnalysis` (whose
   fixpoint already handles direct and mutual recursion) with
   :class:`repro.analysis.alias.PointsTo` freshness — verifies the body
   stays within one of the spec shapes (pure / fresh-alloc constructor /
   monoid accumulator / PRNG step).  An unsound declaration is a
   ``repro lint`` error.

Soundness contract (DESIGN.md §12): with specs enabled the verifier's
equality is "equal after canonicalizing declared containers to suffix
multisets" (:func:`repro.core.liveout.canonicalize_snapshot`); everything
not covered by a spec is still compared byte-exactly, so specs can only
ever relax comparisons of state the program declared order-free.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import repro.obs as obs
from repro.analysis.alias import PointsTo
from repro.analysis.purity import EffectAnalysis
from repro.ir.function import Function, Module
from repro.ir.instructions import (
    BinOp,
    Call,
    CallBuiltin,
    GetField,
    LoadGlobal,
    Mov,
    NewArray,
    NewStruct,
    Reg,
    SetField,
    SetIndex,
    StoreGlobal,
)
from repro.lang.types import IntType

__all__ = [
    "AnnotationReport",
    "ChainInsert",
    "CommutativitySpec",
    "EQ_EXACT",
    "EQ_IGNORE",
    "EQ_MULTISET",
    "EQ_REDUCTION",
    "SpecRegistry",
    "check_annotations",
    "default_registry",
    "recognize_chain_inserts",
]

#: Equivalence classes for snapshot comparison (Koskinen & Bansal's
#: abstraction): under which notion of "equal state" the operation
#: commutes.
EQ_EXACT = "exact"  # byte-equal after canonical renumbering (alloc, PRNG)
EQ_MULTISET = "multiset"  # container contents as a bag, order erased
EQ_REDUCTION = "reduction"  # only the folded value is observable
EQ_IGNORE = "ignore"  # effect invisible to live-out comparison


@dataclass(frozen=True)
class CommutativitySpec:
    """One declared-commutative operation.

    ``kind`` selects the shape:

    * ``chain-insert`` — prepend to a singly linked container whose node
      type matches ``struct``/``fields`` exactly and links through
      ``link_field``.  Equivalence: the chain denotes the multiset of
      its node contents.
    * ``monoid`` — accumulate into one integer global with a commutative
      associative operator (``op``); only the folded value is observable.
    * ``fresh-alloc`` — allocate and initialize memory unreachable before
      the call; commutes because snapshots canonicalize object identity.
    * ``prng`` — step a generator state global by a function of itself
      only; N steps compose to the same state in any order.
    """

    name: str
    kind: str
    equivalence: str
    #: Human description of the effect footprint (shown by lint/docs).
    footprint: str
    struct: Optional[str] = None
    link_field: Optional[str] = None
    #: Full ordered (field name, type string) signature; the spec applies
    #: only to a struct matching it exactly — the MiniC analogue of
    #: matching a known library symbol, which is what keeps declared
    #: canonicalization from ever touching undeclared types.
    fields: Tuple[Tuple[str, str], ...] = ()
    op: Optional[str] = None

    def describe(self) -> Dict[str, object]:
        """Canonical JSON row (digest input and ``lint --json`` output)."""
        row: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "equivalence": self.equivalence,
            "footprint": self.footprint,
        }
        if self.struct is not None:
            row["struct"] = self.struct
            row["link_field"] = self.link_field
            row["fields"] = [list(f) for f in self.fields]
        if self.op is not None:
            row["op"] = self.op
        return row


class SpecRegistry:
    """An immutable set of :class:`CommutativitySpec` records."""

    def __init__(self, specs: Tuple[CommutativitySpec, ...]):
        self.specs = tuple(specs)
        self._chain_by_struct = {
            s.struct: s for s in self.specs if s.kind == "chain-insert"
        }

    def __iter__(self):
        return iter(self.specs)

    def chain_spec(self, struct: str) -> Optional[CommutativitySpec]:
        return self._chain_by_struct.get(struct)

    def chain_slots(self, module: Module) -> Dict[str, int]:
        """Link-field slot index per declared struct *present in module*.

        A struct participates only when its full ordered field signature
        matches the spec — name collisions with unrelated types never
        activate a spec.  Slot indices match the field order of
        :func:`repro.core.liveout.capture` rows.
        """
        slots: Dict[str, int] = {}
        for name, spec in self._chain_by_struct.items():
            sdef = module.structs.get(name)
            if sdef is None:
                continue
            signature = tuple(
                (fname, str(ftype)) for fname, ftype in sdef.fields.items()
            )
            if signature != spec.fields:
                continue
            slots[name] = list(sdef.fields).index(spec.link_field)
        if slots:
            obs.current().count("specs.chains_active", len(slots))
        return slots

    def extended_with_module_chains(self, module: Module) -> "SpecRegistry":
        """A widened registry declaring every self-linked struct in
        ``module`` (used by lint to compute "would be commutative if
        declared" suggestions, never by the analysis proper)."""
        extra: List[CommutativitySpec] = []
        for name, sdef in module.structs.items():
            if name in self._chain_by_struct:
                continue
            links = [
                fname
                for fname, ftype in sdef.fields.items()
                if str(ftype) == f"{name}*"
            ]
            if len(links) != 1:
                continue
            extra.append(
                chain_insert_spec(
                    name,
                    links[0],
                    tuple((f, str(t)) for f, t in sdef.fields.items()),
                )
            )
        if not extra:
            return self
        return SpecRegistry(self.specs + tuple(extra))

    def digest(self) -> str:
        """Stable content hash of the spec set (cache-key component)."""
        payload = json.dumps(
            [s.describe() for s in sorted(self.specs, key=lambda s: s.name)],
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def chain_insert_spec(
    struct: str, link_field: str, fields: Tuple[Tuple[str, str], ...]
) -> CommutativitySpec:
    return CommutativitySpec(
        name=f"chain-insert:{struct}",
        kind="chain-insert",
        equivalence=EQ_MULTISET,
        footprint=(
            f"allocates one {struct}, writes its fields, links it through "
            f".{link_field} and publishes the new head"
        ),
        struct=struct,
        link_field=link_field,
        fields=fields,
    )


def default_registry() -> SpecRegistry:
    """The built-in spec set — the CommutativeLibsAA analogue.

    Chain-insert entries name the container node types our benchmark
    suite inlines where the original C called set/hash library routines
    (otter's clause/child lists, hash's bucket and probe chains) plus the
    generic ``BagNode``/``SetNode`` types used by examples and the fuzz
    generator.  Signatures are exact, so e.g. a user struct that happens
    to be called ``Entry`` with different fields is untouched.
    """
    specs: List[CommutativitySpec] = [
        chain_insert_spec(
            "BagNode", "next", (("value", "int"), ("next", "BagNode*"))
        ),
        chain_insert_spec(
            "SetNode", "next", (("key", "int"), ("next", "SetNode*"))
        ),
        # otter: clause list and per-clause child list.
        chain_insert_spec(
            "Child",
            "next",
            (("weight", "int"), ("id", "int"), ("next", "Child*")),
        ),
        chain_insert_spec(
            "Clause",
            "next",
            (("children", "Child*"), ("tag", "int"), ("next", "Clause*")),
        ),
        # hash: bucket chains and the probe request list.
        chain_insert_spec(
            "Entry",
            "next",
            (("key", "int"), ("value", "int"), ("next", "Entry*")),
        ),
        chain_insert_spec(
            "Probe",
            "next",
            (("key", "int"), ("result", "int"), ("next", "Probe*")),
        ),
        CommutativitySpec(
            name="monoid:int-add",
            kind="monoid",
            equivalence=EQ_REDUCTION,
            footprint="reads and writes one int global as g = g + e",
            op="+",
        ),
        CommutativitySpec(
            name="monoid:int-mul",
            kind="monoid",
            equivalence=EQ_REDUCTION,
            footprint="reads and writes one int global as g = g * e",
            op="*",
        ),
        CommutativitySpec(
            name="monoid:int-min",
            kind="monoid",
            equivalence=EQ_REDUCTION,
            footprint="reads and writes one int global as g = min(g, e)",
            op="min",
        ),
        CommutativitySpec(
            name="monoid:int-max",
            kind="monoid",
            equivalence=EQ_REDUCTION,
            footprint="reads and writes one int global as g = max(g, e)",
            op="max",
        ),
        CommutativitySpec(
            name="fresh-alloc",
            kind="fresh-alloc",
            equivalence=EQ_EXACT,
            footprint="allocates and writes only memory unreachable "
            "before the call",
        ),
        CommutativitySpec(
            name="prng-step",
            kind="prng",
            equivalence=EQ_EXACT,
            footprint="replaces one int global with a function of itself "
            "and constants only",
        ),
    ]
    return SpecRegistry(tuple(specs))


# -- chain-insert recognizer ---------------------------------------------------


@dataclass(frozen=True)
class ChainInsert:
    """One recognized prepend into a declared container.

    ``sites`` are the (block, index) instruction sites that *are* the
    declared footprint — the allocation, the field initializations, the
    link store and the head publication — which the static prover may
    waive.  ``head_reg``/``head_global`` name the published head.
    """

    struct: str
    node_reg: Reg
    sites: FrozenSet[Tuple[str, int]]
    head_reg: Optional[Reg] = None
    head_global: Optional[str] = None


def _loop_instrs(func: Function, loop) -> List[Tuple[str, int, object]]:
    out = []
    for name in sorted(loop.blocks):
        for idx, instr in enumerate(func.blocks[name].instrs):
            out.append((name, idx, instr))
    return out


def recognize_chain_inserts(
    func: Function, loop, registry: SpecRegistry, module: Module
) -> List[ChainInsert]:
    """Match declared chain-prepend idioms inside ``loop``.

    For each ``new T`` of a declared container type the match requires:

    * every in-loop use of the fresh node is a field write on it, a read
      of its own fields, or the single head publication;
    * exactly one field write stores to the link field, and its value is
      the current head (the register later republished, or the value of
      the loop's only load of the published global);
    * the head itself is otherwise unobserved inside the loop — no other
      read can see the chain mid-construction, so iteration order can
      only permute the chain's node order, which the declared
      equivalence (multiset of contents) erases.

    The recognizer is deliberately conservative: a pattern it rejects is
    simply not waived and the loop stays with the dynamic stage.
    """
    chain_slots = registry.chain_slots(module)
    if not chain_slots:
        return []
    instrs = _loop_instrs(func, loop)
    inserts: List[ChainInsert] = []

    for alloc_name, alloc_idx, alloc in instrs:
        if not isinstance(alloc, NewStruct):
            continue
        spec = registry.chain_spec(alloc.struct_name)
        if spec is None or alloc.struct_name not in chain_slots:
            continue
        node = alloc.dest
        sites: Set[Tuple[str, int]] = {(alloc_name, alloc_idx)}
        link_stores: List[Tuple[Tuple[str, int], object]] = []
        head_updates: List[Tuple[Tuple[str, int], object]] = []
        ok = True
        for name, idx, instr in instrs:
            if (name, idx) == (alloc_name, alloc_idx):
                continue
            if node in instr.defs():
                ok = False  # the node register is reassigned in-loop
                break
            if node not in instr.uses():
                continue
            if isinstance(instr, SetField) and instr.obj == node:
                sites.add((name, idx))
                if instr.field == spec.link_field:
                    link_stores.append(((name, idx), instr.value))
            elif isinstance(instr, GetField) and instr.obj == node:
                pass  # reading back the node's own fresh fields is fine
            elif isinstance(instr, Mov) and instr.src == node:
                head_updates.append(((name, idx), instr))
            elif isinstance(instr, StoreGlobal) and instr.src == node:
                head_updates.append(((name, idx), instr))
            else:
                ok = False  # the fresh node escapes some other way
                break
        if not ok or len(link_stores) != 1 or len(head_updates) != 1:
            continue
        link_value = link_stores[0][1]
        update_site, update = head_updates[0]
        sites.add(update_site)

        if isinstance(update, Mov):
            head = update.dest
            if link_value != head:
                continue
            if not _head_reg_unobserved(instrs, head, link_stores[0][0],
                                        update_site):
                continue
            inserts.append(
                ChainInsert(
                    struct=alloc.struct_name,
                    node_reg=node,
                    sites=frozenset(sites),
                    head_reg=head,
                )
            )
        else:  # StoreGlobal
            gname = update.name
            load_sites = [
                ((name, idx), instr)
                for name, idx, instr in instrs
                if isinstance(instr, LoadGlobal) and instr.name == gname
            ]
            other_stores = [
                (name, idx)
                for name, idx, instr in instrs
                if isinstance(instr, StoreGlobal)
                and instr.name == gname
                and (name, idx) != update_site
            ]
            if len(load_sites) != 1 or other_stores:
                continue
            load_site, load = load_sites[0]
            if link_value != load.dest:
                continue
            if not _head_reg_unobserved(instrs, load.dest,
                                        link_stores[0][0], load_site):
                continue
            sites.add(load_site)
            inserts.append(
                ChainInsert(
                    struct=alloc.struct_name,
                    node_reg=node,
                    sites=frozenset(sites),
                    head_global=gname,
                )
            )
    if inserts:
        obs.current().count("specs.chain_inserts_recognized", len(inserts))
    return inserts


def _head_reg_unobserved(
    instrs,
    head: Reg,
    link_site: Tuple[str, int],
    def_site: Tuple[str, int],
) -> bool:
    """The head register is used only by the link store and defined only
    at the publication/load site — nothing else in the loop can observe
    the chain's mid-construction order."""
    for name, idx, instr in instrs:
        if (name, idx) == def_site:
            continue
        if head in instr.defs():
            return False
        if head in instr.uses() and (name, idx) != link_site:
            return False
    return True


# -- commutative-annotation checker ---------------------------------------------


@dataclass(frozen=True)
class AnnotationReport:
    """Verdict of the effect-summary check for one declared function."""

    function: str
    ok: bool
    #: Validated spec kind ("pure" | "fresh-alloc" | "monoid" | "prng")
    #: when sound, else None.
    kind: Optional[str]
    reason: str
    #: State global for monoid/prng kinds (consumers must check the loop
    #: does not observe it elsewhere).
    state_global: Optional[str] = None


def _callee_closure(module: Module, root: str) -> Set[str]:
    """Transitive callees of ``root`` (including itself); cycles fine."""
    seen: Set[str] = set()
    work = [root]
    while work:
        name = work.pop()
        if name in seen:
            continue
        seen.add(name)
        func = module.functions.get(name)
        if func is None:
            continue
        for instr in func.instructions():
            if isinstance(instr, Call) and instr.func not in seen:
                work.append(instr.func)
    return seen


def _derives_only_from(
    func: Function, reg: Reg, allowed_global: str
) -> bool:
    """Every def of ``reg`` computes from the allowed global and
    constants only (transitively) — the PRNG self-composition shape."""
    visiting: Set[Reg] = set()

    def check_reg(r: Reg) -> bool:
        if r in visiting:
            return False  # conservative on cycles through registers
        visiting.add(r)
        try:
            defs = [i for i in func.instructions() if r in i.defs()]
            if not defs:
                return False  # a parameter or undefined: not constant
            for instr in defs:
                if isinstance(instr, LoadGlobal):
                    if instr.name != allowed_global:
                        return False
                    continue
                if isinstance(instr, (Mov, BinOp)) or (
                    isinstance(instr, CallBuiltin)
                    and instr.func in ("min", "max", "abs")
                ):
                    for used in instr.uses():
                        if isinstance(used, Reg) and not check_reg(used):
                            return False
                    continue
                return False
            return True
        finally:
            visiting.discard(r)

    return check_reg(reg)


def _monoid_store_ok(func: Function, store: StoreGlobal) -> Optional[str]:
    """Whether one ``StoreGlobal`` matches ``g = g op e`` for a
    commutative monoid op; returns the op on success."""
    if not isinstance(store.src, Reg):
        return None
    g_regs = {
        i.dest
        for i in func.instructions()
        if isinstance(i, LoadGlobal) and i.name == store.name
    }
    defs = [i for i in func.instructions() if store.src in i.defs()]
    if len(defs) != 1:
        return None
    d = defs[0]
    if isinstance(d, BinOp) and d.op in ("+", "*"):
        operands = [d.lhs, d.rhs]
        if any(isinstance(o, Reg) and o in g_regs for o in operands):
            return d.op
    if isinstance(d, CallBuiltin) and d.func in ("min", "max"):
        if any(isinstance(a, Reg) and a in g_regs for a in d.args):
            return d.func
    return None


def check_annotations(
    module: Module,
    registry: Optional[SpecRegistry] = None,
    effects: Optional[EffectAnalysis] = None,
    points_to: Optional[PointsTo] = None,
) -> Dict[str, AnnotationReport]:
    """Check every ``commutative``-declared function against the specs.

    Bottom-up over the call graph: the interprocedural effect summaries
    (:class:`EffectAnalysis`, a fixpoint — so direct and mutual recursion
    and calls through conditionals are already folded in) bound what the
    function *may* do; the points-to analysis establishes freshness of
    heap writes.  The declaration is validated against the spec shapes in
    order of strength: pure, fresh-alloc constructor, monoid accumulator,
    PRNG step.  Anything outside those footprints is reported unsound.
    """
    registry = registry or default_registry()
    effects = effects or EffectAnalysis(module)
    points_to = points_to or PointsTo(module)
    declared = [f for f in module.functions.values() if f.commutative]
    if not declared:
        return {}

    # Map every allocation site to its owning function, so constructor
    # freshness can allow allocations made anywhere in the call subtree.
    alloc_owner: Dict[Tuple[str, int], str] = {}
    for func in module.functions.values():
        for instr in func.instructions():
            if isinstance(instr, (NewStruct, NewArray)):
                alloc_owner[("alloc", id(instr))] = func.name

    reports: Dict[str, AnnotationReport] = {}
    ctx = obs.current()
    for func in declared:
        report = _check_one(module, func, effects, points_to, alloc_owner)
        reports[func.name] = report
        ctx.count(
            "specs.annotations.sound" if report.ok
            else "specs.annotations.unsound"
        )
    return reports


def _check_one(
    module: Module,
    func: Function,
    effects: EffectAnalysis,
    points_to: PointsTo,
    alloc_owner: Dict[Tuple[str, int], str],
) -> AnnotationReport:
    name = func.name
    eff = effects.of(name)

    def unsound(reason: str) -> AnnotationReport:
        return AnnotationReport(function=name, ok=False, kind=None,
                                reason=reason)

    if eff.does_io:
        return unsound("performs I/O; output order observes iteration order")

    if not (eff.writes_heap or eff.globals_written or eff.allocates):
        return AnnotationReport(
            function=name,
            ok=True,
            kind="pure",
            reason="no writes, no I/O: calls commute trivially",
        )

    if eff.globals_written:
        if eff.writes_heap or eff.allocates:
            return unsound(
                "writes globals and the heap; no spec covers the "
                "combined footprint"
            )
        if len(eff.globals_written) != 1:
            written = ", ".join(sorted(eff.globals_written))
            return unsound(
                f"writes multiple globals ({written}); monoid/prng specs "
                "cover exactly one state global"
            )
        gname = next(iter(eff.globals_written))
        gvar = module.globals.get(gname)
        if gvar is None or not isinstance(gvar.type, IntType):
            return unsound(
                f"global @{gname} is not an int; only integer "
                "accumulators are exactly reassociable"
            )
        # All writes must be in this function's own body: a callee
        # writing the state global would hide part of the update shape.
        for callee in _callee_closure(module, name) - {name}:
            ceff = effects.effects.get(callee)
            if ceff is None or ceff.globals_written:
                return unsound(
                    f"callee {callee} writes globals; the update shape "
                    "must be local to the declared function"
                )
        stores = [
            i
            for i in func.instructions()
            if isinstance(i, StoreGlobal) and i.name == gname
        ]
        ops = {_monoid_store_ok(func, s) for s in stores}
        if None not in ops:
            op = ", ".join(sorted(ops))
            return AnnotationReport(
                function=name,
                ok=True,
                kind="monoid",
                reason=f"accumulates @{gname} with commutative op {op}",
                state_global=gname,
            )
        if all(
            isinstance(s.src, Reg)
            and _derives_only_from(func, s.src, gname)
            for s in stores
        ):
            return AnnotationReport(
                function=name,
                ok=True,
                kind="prng",
                reason=f"steps @{gname} by a function of itself only; "
                "n steps compose identically in any order",
                state_global=gname,
            )
        return unsound(
            f"update of @{gname} is neither a commutative-monoid "
            "accumulation nor a self-composing generator step"
        )

    # Heap writes / allocation without global writes: constructor shape.
    closure = _callee_closure(module, name)
    for callee in sorted(closure):
        cfunc = module.functions.get(callee)
        if cfunc is None:
            return unsound(f"calls unknown function {callee}")
        ceff = effects.of(callee)
        if ceff.does_io or ceff.globals_written:
            return unsound(
                f"callee {callee} performs I/O or writes globals"
            )
        for instr in cfunc.instructions():
            target = None
            if isinstance(instr, SetField):
                target = instr.obj
            elif isinstance(instr, SetIndex):
                target = instr.arr
            if target is None:
                continue
            if not isinstance(target, Reg):
                return unsound(
                    f"{callee} writes through a non-register reference"
                )
            pts = points_to.points_to(callee, target)
            if not pts:
                return unsound(
                    f"{callee} writes through a reference with unknown "
                    "points-to set"
                )
            stale = [
                obj for obj in pts if alloc_owner.get(obj) not in closure
            ]
            if stale:
                return unsound(
                    f"{callee} may write memory allocated outside the "
                    "call (not fresh)"
                )
    return AnnotationReport(
        function=name,
        ok=True,
        kind="fresh-alloc",
        reason="writes only memory allocated during the call "
        "(fresh-allocation constructor)",
    )
