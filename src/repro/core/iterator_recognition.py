"""Generalized iterator/payload separation (paper §IV-A1).

Following Manilov et al. (*Generalized profile-guided iterator
recognition*, CC 2018), the **iterator** of a loop is the set of
instructions that decide whether execution continues in the loop: the
backward program slice — data *and* control dependences, restricted to the
loop body — of the conditions of every loop-exit branch.  Everything else
is **payload**.

The slice construction guarantees by definition that the iterator never
depends on the payload; the converse (payload consuming iterator values)
is captured by :attr:`IteratorSeparation.iter_value_regs`, the registers
through which the payload observes the current iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from repro.analysis.defuse import Site
from repro.analysis.loops import Loop, function_analyses
from repro.ir.function import Function
from repro.ir.instructions import Branch, Reg, Ret


@dataclass
class IteratorSeparation:
    """Result of iterator/payload separation for one loop."""

    loop: Loop
    #: All instruction sites in the loop.
    all_sites: Set[Site] = field(default_factory=set)
    #: Sites forming the iterator slice (includes exit branches).
    iterator_sites: Set[Site] = field(default_factory=set)
    #: Non-terminator payload computation sites.
    payload_sites: Set[Site] = field(default_factory=set)
    #: Branch terminators internal to the payload (payload control flow).
    payload_branches: Set[Site] = field(default_factory=set)
    #: Registers defined by the iterator and consumed by the payload —
    #: the per-iteration "iterator values" that get linearized.
    iter_value_regs: List[Reg] = field(default_factory=list)
    #: True when the loop contains a ``ret`` (cannot be outlined/tested).
    has_return: bool = False

    @property
    def payload_is_empty(self) -> bool:
        return not self.payload_sites

    @property
    def iterator_share(self) -> float:
        """Share of the loop's sites in the iterator slice: the part of
        each iteration that stays sequential under DCA's
        linearize-then-dispatch code generation."""
        return len(self.iterator_sites) / len(self.all_sites)


def separate(func: Function, loop: Loop, memory_flow=None) -> IteratorSeparation:
    """Split ``loop`` into iterator and payload sites.

    ``memory_flow`` is an optional set of same-invocation dynamic flow
    edges ``((func, block, idx), (func, block, idx))`` from
    :class:`repro.analysis.dynamic_deps.DynamicDepProfiler`.  With it, the
    slice also follows memory data-flow: when a slice instruction reads a
    location written by another loop instruction (possibly through a call,
    e.g. ``pop(frontier)`` updating ``frontier->size``), the writer joins
    the iterator — the profile-guided part of the recognition.
    """
    analyses = function_analyses(func)
    reaching, controldep = analyses.reaching, analyses.controldep
    result = IteratorSeparation(loop)
    loop_blocks = loop.blocks

    # Memory writers per reader site, restricted to this function and loop.
    mem_writers: dict = {}
    if memory_flow:
        for (wf, wb, wi), (rf, rb, ri) in memory_flow:
            if wf != func.name or rf != func.name:
                continue
            if wb not in loop_blocks or rb not in loop_blocks:
                continue
            mem_writers.setdefault((rb, ri), set()).add((wb, wi))

    terminator_sites: Set[Site] = set()
    exit_branch_sites: Set[Site] = set()
    for name in loop_blocks:
        block = func.blocks[name]
        last = len(block.instrs) - 1
        site = (name, last)
        term = block.instrs[last]
        terminator_sites.add(site)
        if isinstance(term, Ret):
            result.has_return = True
        if isinstance(term, Branch):
            if any(succ not in loop_blocks for succ in block.successors()):
                exit_branch_sites.add(site)
        for idx in range(len(block.instrs)):
            result.all_sites.add((name, idx))

    # Backward slice from the exit branches.
    worklist = list(exit_branch_sites)
    iterator: Set[Site] = set(exit_branch_sites)
    while worklist:
        site = worklist.pop()
        block_name, _ = site
        instr = func.blocks[block_name].instrs[site[1]]
        # Data dependences (defs inside the loop only).
        for reg in instr.uses():
            for def_site in reaching.reaching(site, reg):
                if def_site == ("", -1):
                    continue
                if def_site[0] in loop_blocks and def_site not in iterator:
                    iterator.add(def_site)
                    worklist.append(def_site)
        # Memory data-flow (profile-guided): writers feeding this site's
        # reads through memory join the iterator.
        for writer in mem_writers.get(site, ()):
            if writer not in iterator:
                iterator.add(writer)
                worklist.append(writer)
        # Control dependences: the branches governing whether this site
        # executes are part of the traversal decision.
        for ctrl_block in controldep.controlling_blocks(block_name):
            if ctrl_block not in loop_blocks:
                continue
            ctrl_site = (ctrl_block, len(func.blocks[ctrl_block].instrs) - 1)
            if ctrl_site not in iterator:
                iterator.add(ctrl_site)
                worklist.append(ctrl_site)

    result.iterator_sites = iterator

    for site in result.all_sites:
        if site in iterator or site in terminator_sites:
            continue
        result.payload_sites.add(site)
    for site in terminator_sites:
        if site not in iterator:
            block_name, idx = site
            if isinstance(func.blocks[block_name].instrs[idx], Branch):
                result.payload_branches.add(site)

    # Iterator values consumed by the payload.
    payload_like = result.payload_sites | result.payload_branches
    iter_defs: Set[Reg] = set()
    for site in iterator:
        iter_defs.update(func.blocks[site[0]].instrs[site[1]].defs())
    consumed: Set[Reg] = set()
    for site in payload_like:
        instr = func.blocks[site[0]].instrs[site[1]]
        for reg in instr.uses():
            if reg in iter_defs:
                consumed.add(reg)
    result.iter_value_regs = sorted(consumed, key=lambda r: r.name)
    return result

