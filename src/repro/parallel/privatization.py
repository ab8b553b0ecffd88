"""OpenMP clause synthesis: privatization and reduction variables.

DCA's parallelization stage (paper §IV-C) reuses the profile-driven
techniques of Tournavitis et al. [8]: variables written before they are
read in every iteration become ``private``; recognized accumulators become
``reduction`` variables (Pottenger-style idiom exploitation [35]).

The clause set feeds two consumers: the simulated executor charges the
reduction-merge cost per reduction variable, and reports/examples print
the synthesized pragma for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.analysis.loops import Loop
from repro.analysis.reductions import (
    COMPLEX_REDUCTIONS,
    INDUCTION,
    LoopIdioms,
    POINTER_CHASE,
)
from repro.ir.function import Function


@dataclass
class ParallelClauses:
    """Synthesized OpenMP-style clauses for one loop."""

    label: str
    private: List[str] = field(default_factory=list)
    reductions: List[str] = field(default_factory=list)
    #: Histogram arrays updated with atomics (or per-thread copies).
    atomics: List[str] = field(default_factory=list)
    #: Human-readable notes (e.g. why a variable needs no clause).
    notes: List[str] = field(default_factory=list)

    def pragma(self) -> str:
        parts = ["#pragma omp parallel for"]
        if self.private:
            parts.append(f"private({', '.join(self.private)})")
        for red in self.reductions:
            parts.append(f"reduction({red})")
        return " ".join(parts)


_REDUCTION_OPS = {
    "reduction-add": "+",
    "reduction-mul": "*",
    "reduction-minmax": "min/max",
    "reduction-minmax-cond": "min/max",
}


def synthesize_clauses(
    func: Function,
    loop: Loop,
    idioms: LoopIdioms,
) -> ParallelClauses:
    """Derive the clause set for parallelizing ``loop``."""
    clauses = ParallelClauses(label=loop.label)

    for reg, klass in sorted(idioms.scalars.items(), key=lambda kv: kv[0].name):
        if klass == INDUCTION:
            clauses.private.append(reg.name)
            clauses.notes.append(f"{reg.name}: induction, becomes the loop index")
        elif klass in COMPLEX_REDUCTIONS:
            clauses.reductions.append(f"{_REDUCTION_OPS[klass]}:{reg.name}")
        elif klass == POINTER_CHASE:
            clauses.notes.append(
                f"{reg.name}: pointer-chasing iterator, linearized before dispatch"
            )
        else:
            clauses.notes.append(f"{reg.name}: carried scalar left to verification")

    # Registers defined and used only within one iteration are private by
    # construction in the outlined payload; histogram arrays take atomics.
    for update in idioms.histograms:
        clauses.atomics.append(update.array.name)

    return clauses
