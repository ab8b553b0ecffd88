"""Affine access analysis and static loop-dependence testing.

This is the machinery behind the Polly- and ICC-style baselines: extract
affine subscript expressions for every array access in a loop nest, then
decide whether the *tested* loop carries a cross-iteration dependence
(ZIV / strong-SIV style reasoning per subscript dimension).

An affine expression is ``const + Σ coeff·atom`` where an atom is either an
induction variable of a loop in the tested nest or a loop-invariant
register.  Expressions are dictionaries ``{atom_or_None: int}`` with
``None`` keying the constant term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.loops import Loop, function_analyses
from repro.ir.function import Function
from repro.ir.instructions import (
    BinOp,
    Const,
    GetIndex,
    Mov,
    Operand,
    Reg,
    SetIndex,
    UnOp,
)

__all__ = [
    "Affine",
    "AffineContext",
    "ArrayAccess",
    "cross_iteration_dependence",
]

Affine = Dict[object, int]  # keys: Reg atoms or None (constant)


def _add(a: Affine, b: Affine, sign: int = 1) -> Affine:
    out = dict(a)
    for key, coeff in b.items():
        out[key] = out.get(key, 0) + sign * coeff
        if out[key] == 0 and key is not None:
            del out[key]
    return out


def _scale(a: Affine, factor: int) -> Affine:
    return {k: v * factor for k, v in a.items() if v * factor != 0 or k is None}


def _const_only(a: Affine) -> Optional[int]:
    if all(k is None for k in a):
        return a.get(None, 0)
    return None


@dataclass
class ArrayAccess:
    """One array access inside the tested loop."""

    site: Tuple[str, int]
    is_write: bool
    #: Root array register (invariant w.r.t. the tested loop).
    root: Reg
    #: One affine expression per subscript dimension (None = non-affine).
    subscripts: List[Optional[Affine]]


class AffineContext:
    """Affine reasoning scoped to one tested loop (and its nested loops)."""

    def __init__(self, func: Function, loop: Loop):
        self.func = func
        self.loop = loop
        self.reaching = function_analyses(func).reaching
        #: iv reg -> (owning loop label, step or None)
        self.ivs: Dict[Reg, Tuple[str, Optional[int]]] = {}
        self._defs_in_loop: Set[Reg] = set()
        for name in loop.blocks:
            for instr in func.blocks[name].instrs:
                self._defs_in_loop.update(instr.defs())
        self._collect_ivs()

    # -- induction variables -----------------------------------------------

    def _collect_ivs(self) -> None:
        nest = [self.loop]
        stack = list(self.loop.children)
        while stack:
            inner = stack.pop()
            nest.append(inner)
            stack.extend(inner.children)
        for loop in nest:
            for reg, step in self._loop_ivs(loop).items():
                self.ivs[reg] = (loop.label, step)

    def _loop_ivs(self, loop: Loop) -> Dict[Reg, Optional[int]]:
        """Registers whose every in-loop def is ``r = r ± const``."""
        defs: Dict[Reg, List[BinOp]] = {}
        bad: Set[Reg] = set()
        for name in loop.blocks:
            for instr in self.func.blocks[name].instrs:
                for reg in instr.defs():
                    if (
                        isinstance(instr, BinOp)
                        and instr.op in ("+", "-")
                        and instr.lhs == reg
                        and isinstance(instr.rhs, Const)
                        and isinstance(instr.rhs.value, int)
                    ):
                        defs.setdefault(reg, []).append(instr)
                    else:
                        bad.add(reg)
        out: Dict[Reg, Optional[int]] = {}
        for reg, updates in defs.items():
            if reg in bad:
                continue
            if len(updates) == 1:
                instr = updates[0]
                step = instr.rhs.value if instr.op == "+" else -instr.rhs.value
                out[reg] = step
            else:
                out[reg] = None  # induction, step statically unclear
        return out

    def tested_ivs(self) -> Set[Reg]:
        return {
            reg for reg, (label, _s) in self.ivs.items() if label == self.loop.label
        }

    # -- affine expression resolution --------------------------------------------

    def expr_of(
        self, op: Operand, site: Tuple[str, int], _guard: Optional[Set] = None
    ) -> Optional[Affine]:
        if isinstance(op, Const):
            if isinstance(op.value, int) and not isinstance(op.value, bool):
                return {None: op.value}
            return None
        reg = op
        if reg in self.ivs:
            return {reg: 1, None: 0}
        if reg not in self._defs_in_loop:
            return {reg: 1, None: 0}  # loop-invariant symbol
        guard = _guard or set()
        if reg in guard:
            return None
        guard = guard | {reg}

        sites = self.reaching.reaching(site, reg)
        in_loop = [s for s in sites if s[0] in self.loop.blocks]
        if len(sites) != 1 or len(in_loop) != 1:
            return None  # merged values: not a simple affine chain
        def_site = in_loop[0]
        instr = self.func.blocks[def_site[0]].instrs[def_site[1]]
        if isinstance(instr, Mov):
            return self.expr_of(instr.src, def_site, guard)
        if isinstance(instr, BinOp):
            if instr.op in ("+", "-"):
                lhs = self.expr_of(instr.lhs, def_site, guard)
                rhs = self.expr_of(instr.rhs, def_site, guard)
                if lhs is None or rhs is None:
                    return None
                return _add(lhs, rhs, 1 if instr.op == "+" else -1)
            if instr.op == "*":
                lhs = self.expr_of(instr.lhs, def_site, guard)
                rhs = self.expr_of(instr.rhs, def_site, guard)
                if lhs is None or rhs is None:
                    return None
                cl, cr = _const_only(lhs), _const_only(rhs)
                if cl is not None:
                    return _scale(rhs, cl)
                if cr is not None:
                    return _scale(lhs, cr)
                return None
            if instr.op == "%" or instr.op == "/":
                return None
        if isinstance(instr, UnOp) and instr.op == "-":
            inner = self.expr_of(instr.operand, def_site, guard)
            return None if inner is None else _scale(inner, -1)
        return None

    # -- access collection ---------------------------------------------------------

    def root_array(
        self, arr: Operand, site: Tuple[str, int], prefix: List[Optional[Affine]]
    ) -> Optional[Reg]:
        """Chase ``row = m[i]`` chains to the invariant root array register.

        Prepends outer subscripts to ``prefix`` as it walks up.
        """
        if not isinstance(arr, Reg):
            return None
        if arr not in self._defs_in_loop:
            return arr
        sites = self.reaching.reaching(site, arr)
        if len(sites) != 1:
            return None
        def_site = next(iter(sites))
        if def_site[0] not in self.loop.blocks:
            return arr
        instr = self.func.blocks[def_site[0]].instrs[def_site[1]]
        if isinstance(instr, Mov):
            return self.root_array(instr.src, def_site, prefix)
        if isinstance(instr, GetIndex):
            prefix.insert(0, self.expr_of(instr.index, def_site))
            return self.root_array(instr.arr, def_site, prefix)
        return None

    def collect_accesses(self) -> Optional[List[ArrayAccess]]:
        """All array accesses in the loop; None when one is unresolvable."""
        accesses: List[ArrayAccess] = []
        for name in sorted(self.loop.blocks):
            for idx, instr in enumerate(self.func.blocks[name].instrs):
                site = (name, idx)
                if isinstance(instr, (GetIndex, SetIndex)):
                    prefix: List[Optional[Affine]] = []
                    root = self.root_array(instr.arr, site, prefix)
                    if root is None:
                        return None
                    subs = prefix + [self.expr_of(instr.index, site)]
                    accesses.append(
                        ArrayAccess(
                            site=site,
                            is_write=isinstance(instr, SetIndex),
                            root=root,
                            subscripts=subs,
                        )
                    )
        return accesses


# ---------------------------------------------------------------------------
# Dependence testing
# ---------------------------------------------------------------------------


def _dim_relation(
    f: Optional[Affine],
    g: Optional[Affine],
    tested_ivs: Set[Reg],
    iv_steps: Dict[Reg, Optional[int]],
) -> str:
    """Relation of one subscript dimension across two *different* iterations.

    Returns "never" (locations can never coincide), "same-iter-only"
    (coincide only when the two iterations are equal), or "maybe".
    """
    if f is None or g is None:
        return "maybe"
    varying_f = {k for k, v in f.items() if k is not None and v != 0}
    varying_g = {k for k, v in g.items() if k is not None and v != 0}
    diff = _add(f, g, -1)
    diff_varying = {k for k, v in diff.items() if k is not None and v != 0}

    if not varying_f and not varying_g:
        # ZIV: two fixed locations.
        return "never" if diff.get(None, 0) != 0 else "maybe"

    if not diff_varying and diff.get(None, 0) == 0:
        # Identical expressions.  They collide across iterations i1 != i2
        # only if the expression is insensitive to the tested ivs.
        derivative = 0
        known = True
        sensitive = False
        for iv in varying_f & tested_ivs:
            sensitive = True
            step = iv_steps.get(iv)
            if step is None:
                known = False
            else:
                derivative += f.get(iv, 0) * step
        others = varying_f - tested_ivs
        if sensitive and not others:
            if known and derivative != 0:
                return "same-iter-only"
            if not known and len(varying_f & tested_ivs) == 1:
                # Single iv with unknown but nonzero step: still injective
                # only if the step never changes sign; be conservative.
                return "maybe"
        return "maybe"
    return "maybe"


def cross_iteration_dependence(
    a: ArrayAccess,
    b: ArrayAccess,
    tested_ivs: Set[Reg],
    iv_steps: Dict[Reg, Optional[int]],
) -> bool:
    """Whether accesses ``a`` and ``b`` may touch the same location in two
    different iterations of the tested loop."""
    if len(a.subscripts) != len(b.subscripts):
        return True  # shape confusion: be conservative
    for f, g in zip(a.subscripts, b.subscripts):
        if _dim_relation(f, g, tested_ivs, iv_steps) in ("never", "same-iter-only"):
            return False
    return True
