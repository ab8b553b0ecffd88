"""Reaching definitions at instruction granularity.

Instruction sites are ``(block_name, index)`` pairs.  The analysis is a
standard forward may-reach data flow over the non-SSA register IR; its
use-to-def chains are the data edges of the generalized iterator
recognition in :mod:`repro.core.iterator_recognition`.  Build it through
:func:`repro.analysis.loops.function_analyses`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.ir.function import Function
from repro.ir.instructions import Instr, Reg

__all__ = [
    "DefSite",
    "ReachingDefs",
    "Site",
]

Site = Tuple[str, int]


@dataclass(frozen=True)
class DefSite:
    """One definition of one register."""

    site: Site
    reg: Reg


class ReachingDefs:
    """Forward may-reaching definitions for one function."""

    def __init__(self, func: Function):
        self.func = func
        #: All definition sites, per register.
        self.def_sites: Dict[Reg, Set[Site]] = {}
        #: For every (use site, register) pair, the definitions reaching it.
        self._reaching_at_use: Dict[Tuple[Site, Reg], FrozenSet[Site]] = {}
        self._compute()

    def instr_at(self, site: Site) -> Instr:
        block, idx = site
        return self.func.blocks[block].instrs[idx]

    def reaching(self, site: Site, reg: Reg) -> FrozenSet[Site]:
        """Definition sites of ``reg`` that may reach the use at ``site``."""
        return self._reaching_at_use.get((site, reg), frozenset())

    # -- computation ------------------------------------------------------------

    def _compute(self) -> None:
        func = self.func
        # Parameters count as definitions at a pseudo-site ("", -1).
        param_site: Site = ("", -1)

        # Enumerate every definition once; the fixpoint then runs on
        # integer bitmasks (bit i <-> defs_list[i]) so that union,
        # survivor filtering, and the changed test are single C-level
        # int operations instead of per-element set algebra.
        defs_list: List[Tuple[Reg, Site]] = []
        bit_of: Dict[Tuple[Reg, Site], int] = {}

        def _bit(reg: Reg, site: Site) -> int:
            key = (reg, site)
            b = bit_of.get(key)
            if b is None:
                b = bit_of[key] = 1 << len(defs_list)
                defs_list.append(key)
            return b

        entry_bits = 0
        for reg in func.param_regs():
            self.def_sites.setdefault(reg, set()).add(param_site)
            entry_bits |= _bit(reg, param_site)

        gen_block: Dict[str, Dict[Reg, Site]] = {}
        kill_regs: Dict[str, Set[Reg]] = {}
        for block in func.ordered_blocks():
            gen: Dict[Reg, Site] = {}
            kills: Set[Reg] = set()
            for idx, instr in enumerate(block.instrs):
                for reg in instr.defs():
                    site = (block.name, idx)
                    gen[reg] = site
                    kills.add(reg)
                    self.def_sites.setdefault(reg, set()).add(site)
                    _bit(reg, site)
            gen_block[block.name] = gen
            kill_regs[block.name] = kills

        # A def of ``reg`` kills every def of ``reg``.
        reg_mask: Dict[Reg, int] = {}
        for (reg, site), b in bit_of.items():
            reg_mask[reg] = reg_mask.get(reg, 0) | b

        gen_mask = {
            name: sum(bit_of[(reg, site)] for reg, site in gen.items())
            for name, gen in gen_block.items()
        }
        keep_mask = {}
        for name, kills in kill_regs.items():
            km = 0
            for reg in kills:
                km |= reg_mask[reg]
            keep_mask[name] = ~km

        in_bits = {n: 0 for n in func.block_order}
        out_bits = {n: 0 for n in func.block_order}
        preds = func.predecessors()
        entry = func.entry

        changed = True
        while changed:
            changed = False
            for name in func.block_order:
                ib = entry_bits if name == entry else 0
                for p in preds[name]:
                    ib |= out_bits[p]
                if ib != in_bits[name]:
                    in_bits[name] = ib
                    changed = True
                ob = (ib & keep_mask[name]) | gen_mask[name]
                if ob != out_bits[name]:
                    out_bits[name] = ob
                    changed = True

        # Walk each block once more to record per-use reaching sets.
        for block in func.ordered_blocks():
            current: Dict[Reg, Set[Site]] = {}
            bits = in_bits[block.name]
            while bits:
                low = bits & -bits
                reg, site = defs_list[low.bit_length() - 1]
                current.setdefault(reg, set()).add(site)
                bits ^= low
            for idx, instr in enumerate(block.instrs):
                site = (block.name, idx)
                for reg in instr.uses():
                    self._reaching_at_use[(site, reg)] = frozenset(
                        current.get(reg, set())
                    )
                for reg in instr.defs():
                    current[reg] = {site}
