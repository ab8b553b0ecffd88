"""Natural-loop detection and the loop forest.

A natural loop is identified by a back edge ``latch -> header`` where the
header dominates the latch.  Loops sharing a header are merged.  The forest
records nesting, exit edges, and the mapping back to the stable source-level
loop labels assigned during lowering (``<function>.L<n>``); loops created by
transformations (e.g. DCA dispatch loops) receive anonymous labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import compute_dominators, dominates, reverse_postorder
from repro.ir.function import Function

__all__ = [
    "Loop",
    "LoopForest",
    "build_loop_forest",
    "invalidate_loops",
]


@dataclass
class Loop:
    """One natural loop."""

    label: str
    header: str
    blocks: Set[str] = field(default_factory=set)
    latches: Set[str] = field(default_factory=set)
    parent: Optional["Loop"] = None
    children: List["Loop"] = field(default_factory=list)
    #: Source line of the loop statement (0 for synthetic loops).
    line: int = 0
    #: "for" / "while" / "synthetic".
    kind: str = "synthetic"

    @property
    def depth(self) -> int:
        depth = 0
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def exit_edges(self, func: Function) -> List[Tuple[str, str]]:
        """Edges leaving the loop as ``(from_block, to_block)`` pairs."""
        edges = []
        for name in sorted(self.blocks):
            for succ in func.blocks[name].successors():
                if succ not in self.blocks:
                    edges.append((name, succ))
        return edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Loop({self.label}, header={self.header}, {len(self.blocks)} blocks)"


class LoopForest:
    """All natural loops of a function, with nesting structure."""

    def __init__(self, func: Function):
        self.func = func
        self.loops: Dict[str, Loop] = {}
        self.by_header: Dict[str, Loop] = {}
        #: Innermost loop containing each block (None if not in a loop).
        self.innermost: Dict[str, Optional[Loop]] = {}
        self._build()

    # -- queries --------------------------------------------------------------

    def loop(self, label: str) -> Loop:
        return self.loops[label]

    def loop_chain(self, block: str) -> List[Loop]:
        """Loops containing ``block``, outermost first."""
        chain: List[Loop] = []
        loop = self.innermost.get(block)
        while loop is not None:
            chain.append(loop)
            loop = loop.parent
        chain.reverse()
        return chain

    # -- construction ------------------------------------------------------------

    def _build(self) -> None:
        func = self.func
        idom = compute_dominators(func)
        rpo = reverse_postorder(func)
        reachable = set(rpo)

        header_to_loop: Dict[str, Loop] = {}
        header_to_source = {
            meta.header: meta for meta in func.loops.values()
        }
        anon_counter = 0

        for name in rpo:
            for succ in func.blocks[name].successors():
                if succ in reachable and dominates(idom, succ, name):
                    # Back edge name -> succ.
                    loop = header_to_loop.get(succ)
                    if loop is None:
                        meta = header_to_source.get(succ)
                        if meta is not None:
                            label, line, kind = meta.label, meta.line, meta.kind
                        else:
                            label = f"{func.name}.anon{anon_counter}"
                            anon_counter += 1
                            line, kind = 0, "synthetic"
                        loop = Loop(
                            label=label, header=succ, line=line, kind=kind
                        )
                        loop.blocks.add(succ)
                        header_to_loop[succ] = loop
                    loop.latches.add(name)
                    self._grow_loop_body(loop, name)

        self.by_header = header_to_loop
        self.loops = {loop.label: loop for loop in header_to_loop.values()}
        self._compute_nesting(rpo)

    def _grow_loop_body(self, loop: Loop, latch: str) -> None:
        """Standard worklist walk of predecessors from the latch."""
        preds = self.func.predecessors()
        stack = [latch]
        while stack:
            name = stack.pop()
            if name in loop.blocks:
                continue
            loop.blocks.add(name)
            stack.extend(preds[name])

    def _compute_nesting(self, rpo: List[str]) -> None:
        # Sort loops by size ascending: the innermost loop containing a block
        # is the smallest loop containing it.
        by_size = sorted(self.loops.values(), key=lambda l: len(l.blocks))
        self.innermost = {name: None for name in rpo}
        assigned: Dict[str, Loop] = {}
        for loop in by_size:
            for name in loop.blocks:
                if name not in assigned:
                    assigned[name] = loop
        self.innermost.update(assigned)

        for loop in by_size:
            # Parent: smallest strictly-larger loop containing the header.
            candidates = [
                other
                for other in self.loops.values()
                if other is not loop
                and loop.header in other.blocks
                and len(other.blocks) > len(loop.blocks)
            ]
            if candidates:
                loop.parent = min(candidates, key=lambda l: len(l.blocks))
                loop.parent.children.append(loop)


def build_loop_forest(func: Function) -> LoopForest:
    """Compute (or fetch a cached) loop forest for ``func``.

    The forest is cached on the function object and invalidated by callers
    that mutate the CFG (transformation passes call ``invalidate_loops``).
    """
    cached = getattr(func, "_loop_forest", None)
    if cached is not None:
        return cached
    forest = LoopForest(func)
    func._loop_forest = forest  # type: ignore[attr-defined]
    return forest


def invalidate_loops(func: Function) -> None:
    """Drop the cached loop forest after a CFG mutation."""
    if hasattr(func, "_loop_forest"):
        del func._loop_forest
