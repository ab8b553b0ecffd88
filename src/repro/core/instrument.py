"""Instrumentation passes (paper §IV-A3/§IV-A4).

Two program variants are produced from the pristine module:

* the **observe variant** — every candidate loop keeps its original code
  but gains an ``rt_verify`` call on each exit edge.  Executed once with
  the workload, it yields the *golden* live-out snapshots in original
  program order.
* a **test variant** per candidate loop — the loop's payload is outlined,
  the loop is replaced by a *recording clone* (iterator only, payload call
  replaced by ``rt_iterator_record``), followed by ``rt_iterator_permute``
  and a *dispatch loop* that replays the payload in the schedule's order
  (``rt_iterator_next``/``rt_iterator_get``), and finally ``rt_verify``.

The intrinsic names follow Fig. 4 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.liveness import LoopLiveness
from repro.analysis.loops import build_loop_forest, invalidate_loops
from repro.analysis.purity import EffectAnalysis
from repro.core.iterator_recognition import separate
from repro.core.payload import OutlineResult, outline_payload, sanitize
from repro.interp.interpreter import RT_INTRINSICS
from repro.ir.clone import clone_module
from repro.ir.function import Function, Module
from repro.ir.instructions import (
    Branch,
    Call,
    CallBuiltin,
    Const,
    GetField,
    Intrinsic,
    Jump,
    LoadGlobal,
    Mov,
    Reg,
    StoreGlobal,
)
from repro.lang.types import BOOL

RT_RECORD, RT_PERMUTE, RT_NEXT, RT_GET, RT_VERIFY = RT_INTRINSICS


@dataclass
class VerifySpec:
    """What ``rt_verify`` snapshots for one loop.

    The verify call passes ``scalar_regs + ref_regs`` as arguments (in this
    order); the runtime additionally reads the named globals directly from
    the interpreter.
    """

    label: str
    function: str
    scalar_regs: List[Reg] = field(default_factory=list)
    ref_regs: List[Reg] = field(default_factory=list)
    ref_globals: List[str] = field(default_factory=list)
    scalar_globals: List[str] = field(default_factory=list)
    #: Declared-container equivalence for snapshot comparison: a sorted
    #: tuple of (struct name, link slot index) pairs, or None for the
    #: default byte-exact comparison.  Set by the analyzer from the spec
    #: registry (see repro.analysis.specs) and applied by
    #: DcaRuntime._verify via liveout.canonicalize_snapshot.
    equivalence: Optional[Tuple[Tuple[str, int], ...]] = None

    def verify_args(self) -> List[Reg]:
        return list(self.scalar_regs) + list(self.ref_regs)


def loop_global_effects(
    module: Module, func: Function, loop_blocks: Set[str], effects: EffectAnalysis
) -> Tuple[Set[str], Set[str]]:
    """Globals (read, written) by the loop body, including callees."""
    gread: Set[str] = set()
    gwritten: Set[str] = set()
    for name in loop_blocks:
        for instr in func.blocks[name].instrs:
            if isinstance(instr, LoadGlobal):
                gread.add(instr.name)
            elif isinstance(instr, StoreGlobal):
                gwritten.add(instr.name)
            elif isinstance(instr, Call) and instr.func in effects.effects:
                callee = effects.of(instr.func)
                gread |= callee.globals_read
                gwritten |= callee.globals_written
    return gread, gwritten


def compute_verify_spec(
    module: Module,
    func: Function,
    label: str,
    effects: EffectAnalysis,
) -> VerifySpec:
    """Derive the live-out specification of a loop on the pristine module."""
    loop = build_loop_forest(func).loops[label]
    ll = LoopLiveness(func)
    spec = VerifySpec(label=label, function=func.name)
    spec.scalar_regs = ll.live_out_scalars(loop)
    spec.ref_regs = ll.live_out_refs(loop)
    gread, gwritten = loop_global_effects(module, func, loop.blocks, effects)
    touched = gread | gwritten
    spec.ref_globals = sorted(
        name
        for name in touched
        if name in module.globals and module.globals[name].type.is_reference()
    )
    spec.scalar_globals = sorted(
        name
        for name in gwritten
        if name in module.globals and not module.globals[name].type.is_reference()
    )
    return spec


def loop_does_io(
    func: Function, loop_blocks: Set[str], effects: EffectAnalysis
) -> bool:
    for name in loop_blocks:
        for instr in func.blocks[name].instrs:
            if isinstance(instr, CallBuiltin) and instr.func == "print":
                return True
            if isinstance(instr, Call) and instr.func in effects.effects:
                if effects.of(instr.func).does_io:
                    return True
    return False


# ---------------------------------------------------------------------------
# Observe variant
# ---------------------------------------------------------------------------


def insert_verify_on_exits(func: Function, label: str, spec: VerifySpec) -> int:
    """Split every exit edge of ``label`` with an ``rt_verify`` block.

    Returns the number of verify blocks inserted.
    """
    invalidate_loops(func)
    forest = build_loop_forest(func)
    if label not in forest.loops:
        return 0
    loop = forest.loops[label]
    edges = loop.exit_edges(func)
    count = 0
    for src, dst in edges:
        vname = f"{sanitize(label)}.verify{count}"
        vblock = func.new_block(vname)
        vblock.append(
            Intrinsic(None, RT_VERIFY, [Const(label)] + list(spec.verify_args()))
        )
        vblock.append(Jump(dst))
        func.blocks[src].instrs[-1].retarget(dst, vname)
        count += 1
    invalidate_loops(func)
    return count


def build_observe_module(
    module: Module, specs: Dict[str, VerifySpec]
) -> Module:
    """Clone ``module`` and insert verify hooks for every spec'd loop."""
    observed = clone_module(module)
    for label, spec in specs.items():
        func = observed.functions[spec.function]
        insert_verify_on_exits(func, label, spec)
    return observed


# ---------------------------------------------------------------------------
# Test variant
# ---------------------------------------------------------------------------


@dataclass
class TestInstrumentation:
    """A module instrumented to commutativity-test one loop."""

    label: str
    module: Module
    outline: OutlineResult
    spec: VerifySpec


def build_test_module(
    module: Module, label: str, spec: VerifySpec, memory_flow=None
) -> TestInstrumentation:
    """Build the split (record → permute → dispatch → verify) variant.

    The iterator/payload separation is computed on the pristine function,
    whose analyses stay memoized across loops; only the clone is rewritten.
    """
    pristine = module.functions[spec.function]
    separation = separate(
        pristine, build_loop_forest(pristine).loops[label], memory_flow
    )
    test = clone_module(module)
    func = test.functions[spec.function]
    outline = outline_payload(test, func, label, separation=separation)

    forest = build_loop_forest(func)
    loop = forest.loops[label]
    loop_blocks = set(loop.blocks)
    exit_edges = loop.exit_edges(func)
    header = loop.header
    san = sanitize(label)

    # --- recording clone ------------------------------------------------------
    suffix = "$rec"
    mapping = {name: name + suffix for name in loop_blocks}
    for name in [n for n in func.block_order if n in loop_blocks]:
        src = func.blocks[name]
        rec = func.new_block(mapping[name])
        for instr in src.instrs:
            rec.append(instr.clone())
        for target in rec.successors():
            if target in mapping:
                rec.instrs[-1].retarget(target, mapping[target])

    # Replace the payload call in the recording clone with rt_iterator_record.
    rec_call_block = func.blocks[mapping[outline.call_block]]
    for i, instr in enumerate(rec_call_block.instrs):
        if isinstance(instr, Call) and instr.func == outline.payload_func:
            rec_call_block.instrs[i] = Intrinsic(
                None,
                RT_RECORD,
                [Const(label)] + list(outline.input_regs),
                line=instr.line,
            )
            break
    else:  # pragma: no cover - outline guarantees the call exists
        raise AssertionError("payload call not found in recording clone")

    # Entry edges now lead to the recording clone.
    for block in func.ordered_blocks():
        if block.name in loop_blocks or block.name.endswith(suffix):
            continue
        block.instrs[-1].retarget(header, mapping[header])

    # --- dispatch chain per exit edge -------------------------------------------
    save_regs = {reg: Reg(f"__save_{san}_{reg.name}") for reg in outline.input_regs}
    for reg, save in save_regs.items():
        func.reg_types[save] = func.reg_types.get(reg, BOOL)

    for i, (src, dst) in enumerate(exit_edges):
        d0 = func.new_block(f"{san}.d{i}.permute")
        d1 = func.new_block(f"{san}.d{i}.head")
        d2 = func.new_block(f"{san}.d{i}.body")
        d3 = func.new_block(f"{san}.d{i}.verify")

        # D0: save clobberable registers, pick the permutation.
        for reg, save in save_regs.items():
            d0.append(Mov(save, reg))
        d0.append(Intrinsic(None, RT_PERMUTE, [Const(label)]))
        d0.append(Jump(d1.name))

        # D1: more iterations to dispatch?
        cond = Reg(f"__more_{san}_{i}")
        func.reg_types[cond] = BOOL
        d1.append(Intrinsic(cond, RT_NEXT, [Const(label)]))
        d1.append(Branch(cond, d2.name, d3.name))

        # D2: fetch the recorded payload arguments, run the payload.
        for j, reg in enumerate(outline.input_regs):
            d2.append(Intrinsic(reg, RT_GET, [Const(label), Const(j)]))
        d2.append(
            Call(None, outline.payload_func, [outline.env_reg] + outline.input_regs)
        )
        d2.append(Jump(d1.name))

        # D3: restore registers, copy payload outputs back, verify.
        for reg, save in save_regs.items():
            d3.append(Mov(reg, save))
        for reg in outline.output_regs:
            d3.append(GetField(reg, outline.env_reg, outline.env_fields[reg]))
        d3.append(
            Intrinsic(None, RT_VERIFY, [Const(label)] + list(spec.verify_args()))
        )
        d3.append(Jump(dst))

        # Redirect the recording clone's exit edge into the dispatch chain.
        func.blocks[mapping[src]].instrs[-1].retarget(dst, d0.name)

    invalidate_loops(func)
    func.remove_unreachable_blocks()
    return TestInstrumentation(label=label, module=test, outline=outline, spec=spec)
