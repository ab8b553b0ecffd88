"""Payload outlining (paper §IV-A2).

Given the iterator/payload separation of a loop, this pass extracts the
payload into a standalone function, leaving a single ``call`` in the loop:

1. **Block splitting** — blocks mixing iterator and payload instructions
   are split so the payload occupies whole blocks (the payload run within a
   block must be contiguous, mirroring LLVM CodeExtractor's single-region
   requirement).
2. **Region discovery** — the payload blocks must form a single-entry
   region whose exits all reach one target block ``X`` inside the loop.
3. **Extraction** — payload blocks move into a new function
   ``__payload_<label>``.  Scalars the payload communicates across
   iterations or out of the loop travel through a synthetic environment
   struct (one field per escaping register): the caller initializes the
   fields before the loop, the payload function loads them in a prologue
   and stores them back in an epilogue, and the caller reloads them after
   each call.

The result leaves the loop semantically identical (the call sits exactly
where the payload run was), which the dynamic stage later checks end-to-end
by comparing an identity-permutation run against the golden reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.loops import (
    build_loop_forest,
    function_analyses,
    invalidate_loops,
)
from repro.core.iterator_recognition import IteratorSeparation, separate
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import (
    Branch,
    Call,
    Const,
    GetField,
    Instr,
    Jump,
    Mov,
    NewStruct,
    Reg,
    Ret,
    SetField,
)
from repro.ir.lowering import default_value
from repro.lang.types import INT, VOID, PointerType, StructDef, Type


class OutlineError(Exception):
    """The loop cannot be outlined; ``reason`` is a stable short code."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


@dataclass
class OutlineResult:
    """Description of an outlined loop."""

    label: str
    payload_func: str
    env_struct: str
    env_reg: Reg
    #: Call argument registers (excluding the env), in call order.
    input_regs: List[Reg] = field(default_factory=list)
    #: Registers communicated through the env struct.
    output_regs: List[Reg] = field(default_factory=list)
    #: env field name per output register.
    env_fields: Dict[Reg, str] = field(default_factory=dict)
    #: Caller block containing the payload call.
    call_block: str = ""
    #: The single region-exit target inside the loop.
    exit_target: str = ""
    #: Entry-edge setup blocks added in the caller.
    setup_blocks: List[str] = field(default_factory=list)


def sanitize(label: str) -> str:
    return label.replace(".", "_").replace("$", "_")


# ---------------------------------------------------------------------------
# Block splitting
# ---------------------------------------------------------------------------


def _classify_block(
    block: BasicBlock,
    iterator_ids: Set[int],
    payload_ids: Set[int],
    payload_branch_ids: Set[int],
) -> Tuple[List[str], str]:
    """Per-instruction tags ('it'/'pl') for the body, plus terminator tag."""
    tags: List[str] = []
    for instr in block.body():
        if id(instr) in payload_ids:
            tags.append("pl")
        elif id(instr) in iterator_ids:
            tags.append("it")
        else:
            # Unclassified sites do not occur: separation covers all sites.
            tags.append("it")
    term = block.instrs[-1]
    if id(term) in payload_branch_ids:
        term_tag = "pl"
    elif isinstance(term, Jump):
        term_tag = "neutral"
    else:
        term_tag = "it"
    return tags, term_tag


def _split_mixed_blocks(
    func: Function,
    loop_blocks: Set[str],
    iterator_ids: Set[int],
    payload_ids: Set[int],
    payload_branch_ids: Set[int],
) -> Set[str]:
    """Split blocks containing both iterator and payload instructions.

    Returns the updated set of loop block names.  The original block keeps
    the iterator prefix (possibly empty) so loop-header identity survives.
    """
    new_loop_blocks = set(loop_blocks)
    for name in sorted(loop_blocks):
        block = func.blocks[name]
        tags, term_tag = _classify_block(
            block, iterator_ids, payload_ids, payload_branch_ids
        )
        has_pl = "pl" in tags or term_tag == "pl"
        if not (has_pl and ("it" in tags or (term_tag == "it" and "pl" in tags))):
            continue  # uniform block, nothing to split
        if "pl" not in tags:
            # Only the terminator is payload (a payload branch whose block
            # body is iterator work): split before the terminator.
            first_pl = len(tags)
            after_pl = len(tags)
        else:
            first_pl = tags.index("pl")
            after_pl = len(tags) - list(reversed(tags)).index("pl")
            if "it" in tags[first_pl:after_pl]:
                raise OutlineError(
                    "noncontiguous-payload",
                    f"block {name} interleaves payload and iterator code",
                )
        body = block.body()
        prefix = body[:first_pl]
        run = body[first_pl:after_pl]
        suffix = body[after_pl:]
        term = block.instrs[-1]

        if term_tag == "pl" and suffix:
            raise OutlineError(
                "noncontiguous-payload",
                f"block {name} has iterator code between payload and its branch",
            )

        pl_name = f"{name}.pl"
        post_name = f"{name}.post"
        pl_block = func.new_block(pl_name)
        new_loop_blocks.add(pl_name)
        pl_block.instrs = list(run)
        if term_tag == "pl" and not suffix:
            pl_block.instrs.append(term)
        else:
            post_block = func.new_block(post_name)
            new_loop_blocks.add(post_name)
            post_block.instrs = list(suffix) + [term]
            pl_block.instrs.append(Jump(post_name, line=term.line))
        block.instrs = list(prefix) + [Jump(pl_name, line=term.line)]
    return new_loop_blocks


# ---------------------------------------------------------------------------
# Region discovery
# ---------------------------------------------------------------------------


def _payload_region(
    func: Function,
    loop_blocks: Set[str],
    header: str,
    payload_ids: Set[int],
    payload_branch_ids: Set[int],
) -> Set[str]:
    """The set of blocks forming the payload region."""
    region: Set[str] = set()
    for name in loop_blocks:
        block = func.blocks[name]
        body = block.body()
        if any(id(i) in payload_ids for i in body):
            region.add(name)
        elif id(block.instrs[-1]) in payload_branch_ids:
            region.add(name)

    # Absorb jump-only glue blocks (if.end / sc.end merges) whose
    # predecessors are all in the region.
    preds = func.predecessors()
    changed = True
    while changed:
        changed = False
        for name in sorted(loop_blocks - region):
            if name == header:
                continue
            block = func.blocks[name]
            if block.body():
                continue
            ps = preds[name]
            if ps and all(p in region for p in ps):
                region.add(name)
                changed = True
    return region


def _region_entry_and_exit(
    func: Function, region: Set[str], loop_blocks: Set[str]
) -> Tuple[str, str, List[Tuple[str, str]]]:
    preds = func.predecessors()
    entries = set()
    for name in region:
        for p in preds[name]:
            if p not in region:
                entries.add(name)
    if len(entries) != 1:
        raise OutlineError(
            "multi-entry-region", f"payload region entries: {sorted(entries)}"
        )
    entry = entries.pop()

    exit_edges: List[Tuple[str, str]] = []
    targets = set()
    for name in sorted(region):
        for succ in func.blocks[name].successors():
            if succ not in region:
                exit_edges.append((name, succ))
                targets.add(succ)
    if len(targets) != 1:
        raise OutlineError(
            "multi-exit-region", f"payload region exits to: {sorted(targets)}"
        )
    exit_target = targets.pop()
    if exit_target not in loop_blocks:
        raise OutlineError(
            "region-exits-loop", f"payload region leaves the loop via {exit_target}"
        )
    return entry, exit_target, exit_edges


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _region_reg_sets(
    func: Function, region: Set[str]
) -> Tuple[Set[Reg], Set[Reg]]:
    uses: Set[Reg] = set()
    defs: Set[Reg] = set()
    for name in region:
        for instr in func.blocks[name].instrs:
            uses.update(instr.uses())
            defs.update(instr.defs())
    return uses, defs


def outline_payload(
    module: Module,
    func: Function,
    label: str,
    separation: Optional[IteratorSeparation] = None,
    memory_flow=None,
) -> OutlineResult:
    """Outline the payload of loop ``label`` in ``func`` (mutates both).

    ``module`` gains the payload function and the env struct type.  Raises
    :class:`OutlineError` when the loop shape is unsupported.
    ``separation`` may come from an unmodified copy of ``func`` (sites
    are ``(block, index)`` pairs, which cloning preserves); it is
    computed here when omitted.
    """
    forest = build_loop_forest(func)
    if label not in forest.loops:
        raise OutlineError("no-such-loop", label)
    loop = forest.loops[label]

    if separation is None:
        separation = separate(func, loop, memory_flow)

    if separation.has_return:
        raise OutlineError("return-in-loop", label)
    if separation.payload_is_empty:
        raise OutlineError("empty-payload", label)

    iterator_ids = {
        id(func.blocks[b].instrs[i]) for b, i in separation.iterator_sites
    }
    payload_ids = {
        id(func.blocks[b].instrs[i]) for b, i in separation.payload_sites
    }
    payload_branch_ids = {
        id(func.blocks[b].instrs[i]) for b, i in separation.payload_branches
    }

    # A register defined by both iterator and payload cannot be routed
    # faithfully through the env machinery.
    iter_defs: Set[Reg] = set()
    for b, i in separation.iterator_sites:
        iter_defs.update(func.blocks[b].instrs[i].defs())
    payload_defs: Set[Reg] = set()
    for b, i in separation.payload_sites:
        payload_defs.update(func.blocks[b].instrs[i].defs())
    dual = iter_defs & payload_defs
    if dual:
        raise OutlineError("dual-def-reg", ", ".join(sorted(r.name for r in dual)))

    loop_blocks = _split_mixed_blocks(
        func, set(loop.blocks), iterator_ids, payload_ids, payload_branch_ids
    )
    invalidate_loops(func)

    region = _payload_region(
        func, loop_blocks, loop.header, payload_ids, payload_branch_ids
    )
    if loop.header in region:
        raise OutlineError("header-in-region", label)
    entry, exit_target, exit_edges = _region_entry_and_exit(
        func, region, loop_blocks
    )

    liveness = function_analyses(func).liveness
    uses_in_region, defs_in_region = _region_reg_sets(func, region)
    live_into_entry = liveness.live_in[entry]
    live_at_exit = liveness.live_in[exit_target]

    output_regs = sorted(defs_in_region & live_at_exit, key=lambda r: r.name)
    input_regs = sorted(
        (uses_in_region & live_into_entry) - set(output_regs),
        key=lambda r: r.name,
    )

    # --- synthesize the env struct -----------------------------------------
    env_struct_name = f"__env_{sanitize(label)}"
    env_fields: Dict[Reg, str] = {}
    sdef = StructDef(env_struct_name)
    for i, reg in enumerate(output_regs):
        fname = f"v{i}_{sanitize(reg.name)}"
        env_fields[reg] = fname
        sdef.fields[fname] = func.reg_types.get(reg, INT)
    module.structs[env_struct_name] = sdef
    env_type = PointerType(env_struct_name)

    payload_name = f"__payload_{sanitize(label)}"
    if payload_name in module.functions:
        raise OutlineError("already-outlined", label)

    # --- build the payload function -----------------------------------------
    env_param = Reg("__env")
    params: List[Tuple[Reg, Type]] = [(env_param, env_type)]
    for reg in input_regs:
        params.append((reg, func.reg_types.get(reg, INT)))
    payload = Function(payload_name, params, VOID)
    payload.reg_types = dict(func.reg_types)
    payload.reg_types[env_param] = env_type

    prologue = payload.new_block("prologue")
    for reg in output_regs:
        prologue.append(GetField(reg, env_param, env_fields[reg]))
    prologue.append(Jump(entry))

    epilogue_name = "__epilogue"
    moved: Dict[str, BasicBlock] = {}
    for name in sorted(region):
        src = func.blocks[name]
        dst = payload.new_block(name)
        dst.instrs = list(src.instrs)
        moved[name] = dst
    epilogue = payload.new_block(epilogue_name)
    for reg in output_regs:
        epilogue.append(SetField(env_param, env_fields[reg], reg))
    epilogue.append(Ret(None))

    # Retarget region exits to the epilogue.
    for name in sorted(region):
        moved[name].instrs[-1].retarget(exit_target, epilogue_name)

    module.add_function(payload)

    # --- rewrite the caller ---------------------------------------------------
    env_reg = Reg(f"__env_{sanitize(label)}")
    func.reg_types[env_reg] = env_type

    call_block_name = f"{sanitize(label)}.call"
    call_block = func.new_block(call_block_name)
    call_args = [env_reg] + list(input_regs)
    call_block.append(Call(None, payload_name, call_args))
    for reg in output_regs:
        call_block.append(GetField(reg, env_reg, env_fields[reg]))
    call_block.append(Jump(exit_target))

    # Redirect all edges into the region entry to the call block.
    for block in func.ordered_blocks():
        if block.name in region or block.name == call_block_name:
            continue
        block.instrs[-1].retarget(entry, call_block_name)

    # Remove the moved region blocks from the caller.
    for name in region:
        del func.blocks[name]
    func.block_order = [n for n in func.block_order if n not in region]

    # Insert env setup on every entry edge of the loop.
    setup_blocks: List[str] = []
    loop_block_names = (loop_blocks - region) | {call_block_name}
    header = loop.header
    for block in list(func.ordered_blocks()):
        if block.name in loop_block_names:
            continue
        term = block.instrs[-1]
        targets = []
        if isinstance(term, Jump):
            targets = [("target", term.target)]
        elif isinstance(term, Branch):
            targets = [
                ("true_target", term.true_target),
                ("false_target", term.false_target),
            ]
        for attr, tgt in targets:
            if tgt != header:
                continue
            setup_name = f"{sanitize(label)}.setup{len(setup_blocks)}"
            setup = func.new_block(setup_name)
            setup.append(NewStruct(env_reg, env_struct_name))
            for reg in output_regs:
                if reg in live_into_entry or reg in liveness.live_in[header]:
                    setup.append(SetField(env_reg, env_fields[reg], reg))
                else:
                    t = func.reg_types.get(reg, INT)
                    setup.append(
                        SetField(env_reg, env_fields[reg], Const(default_value(t), t))
                    )
            setup.append(Jump(header))
            setattr(term, attr, setup_name)
            setup_blocks.append(setup_name)

    # Drop loop metadata for loops whose headers moved into the payload.
    func.loops = {
        lbl: meta for lbl, meta in func.loops.items() if meta.header in func.blocks
    }
    invalidate_loops(func)
    func.remove_unreachable_blocks()

    return OutlineResult(
        label=label,
        payload_func=payload_name,
        env_struct=env_struct_name,
        env_reg=env_reg,
        input_regs=list(input_regs),
        output_regs=list(output_regs),
        env_fields=env_fields,
        call_block=call_block_name,
        exit_target=exit_target,
        setup_blocks=setup_blocks,
    )
