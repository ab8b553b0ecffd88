"""Register liveness (backward data-flow) and loop live-in/live-out sets.

Liveness is the foundation of the paper's commutativity notion (§III): a
loop is commutative when permuting its iterations leaves its *live-out*
values unchanged.  ``LoopLiveness`` computes, per natural loop:

* ``live_out_scalars`` — scalar registers defined in the loop and live on
  some exit edge (these are checked value-by-value);
* ``live_out_refs`` — reference-typed registers live on some exit edge
  (roots of the heap snapshot — the loop may have mutated anything
  reachable from them);
* ``live_in_regs`` — registers live into the header that the loop uses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.loops import Loop, LoopForest
from repro.ir.function import Function
from repro.ir.instructions import Reg
from repro.lang.types import Type

__all__ = [
    "Liveness",
    "LoopLiveness",
]


class Liveness:
    """Block-level liveness for one function."""

    def __init__(self, func: Function):
        self.func = func
        self._use: Dict[str, Set[Reg]] = {}
        self._def: Dict[str, Set[Reg]] = {}
        self.live_in: Dict[str, Set[Reg]] = {}
        self.live_out: Dict[str, Set[Reg]] = {}
        self._compute()

    def _compute(self) -> None:
        func = self.func
        for block in func.ordered_blocks():
            uses: Set[Reg] = set()
            defs: Set[Reg] = set()
            for instr in block.instrs:
                for reg in instr.uses():
                    if reg not in defs:
                        uses.add(reg)
                defs.update(instr.defs())
            self._use[block.name] = uses
            self._def[block.name] = defs
            self.live_in[block.name] = set()
            self.live_out[block.name] = set()

        changed = True
        order = list(reversed(func.block_order))
        while changed:
            changed = False
            for name in order:
                block = func.blocks[name]
                out: Set[Reg] = set()
                for succ in block.successors():
                    out |= self.live_in[succ]
                newin = self._use[name] | (out - self._def[name])
                if out != self.live_out[name]:
                    self.live_out[name] = out
                    changed = True
                if newin != self.live_in[name]:
                    self.live_in[name] = newin
                    changed = True

    def live_at_exit(self, block: str) -> Set[Reg]:
        return set(self.live_out[block])


class LoopLiveness:
    """Loop-scoped live-in/live-out classification used by DCA."""

    def __init__(self, func: Function, forest: LoopForest,
                 liveness: Optional[Liveness] = None):
        self.func = func
        self.forest = forest
        self.liveness = liveness or Liveness(func)

    # -- helpers ---------------------------------------------------------------

    def _reg_type(self, reg: Reg) -> Optional[Type]:
        return self.func.reg_types.get(reg)

    def _is_ref(self, reg: Reg) -> bool:
        t = self._reg_type(reg)
        return t is not None and t.is_reference()

    def defs_in_loop(self, loop: Loop) -> Set[Reg]:
        defs: Set[Reg] = set()
        for name in loop.blocks:
            for instr in self.func.blocks[name].instrs:
                defs.update(instr.defs())
        return defs

    def uses_in_loop(self, loop: Loop) -> Set[Reg]:
        uses: Set[Reg] = set()
        for name in loop.blocks:
            for instr in self.func.blocks[name].instrs:
                uses.update(instr.uses())
        return uses

    # -- live sets ------------------------------------------------------------

    def exit_live_regs(self, loop: Loop) -> Set[Reg]:
        """Registers live on at least one exit edge of the loop."""
        live: Set[Reg] = set()
        for _src, dst in loop.exit_edges(self.func):
            live |= self.liveness.live_in[dst]
        return live

    def live_out_scalars(self, loop: Loop) -> List[Reg]:
        """Scalar registers the loop defines that are consumed afterwards."""
        defs = self.defs_in_loop(loop)
        result = [
            reg
            for reg in self.exit_live_regs(loop)
            if reg in defs and not self._is_ref(reg)
        ]
        return sorted(result, key=lambda r: r.name)

    def live_out_refs(self, loop: Loop) -> List[Reg]:
        """Reference registers live after the loop (heap snapshot roots).

        Includes references defined before the loop: the loop may mutate the
        heap they point to, so their reachable state is part of the
        observable outcome.
        """
        result = [reg for reg in self.exit_live_regs(loop) if self._is_ref(reg)]
        return sorted(result, key=lambda r: r.name)

    def live_in_regs(self, loop: Loop) -> List[Reg]:
        """Registers defined outside the loop but used within it."""
        header_live = self.liveness.live_in[loop.header]
        uses = self.uses_in_loop(loop)
        defs = self.defs_in_loop(loop)
        live_in = {reg for reg in uses & header_live}
        # A register both defined in the loop and live into the header is a
        # loop-carried value (e.g. an accumulator); it is still live-in for
        # the first iteration.
        return sorted(live_in | (defs & header_live & uses),
                      key=lambda r: r.name)
