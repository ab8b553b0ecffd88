"""Execution-cost profiler.

Attributes the number of executed IR instructions to the dynamic loop
stack.  This provides:

* **sequential coverage** per loop — the fraction of total executed
  instructions spent inside the loop (paper Tables II and IV);
* **per-iteration costs** for selected loops — the work distribution the
  simulated multicore executor schedules (paper Figs. 5–7).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.interp.events import LoopCtx, Observer


class Profiler(Observer):
    """Counts executed instructions per loop (inclusive of nested work).

    A loop observer, so it runs on either backend: the loop stack and
    its iteration counters change only at loop events, so the
    executor's ``steps`` retired since the previous event all belong to
    the stack as it stood.  That delta is booked at every event and
    when a result is read (which also charges a run that faulted inside
    a loop).
    """

    wants_loops = True

    def __init__(self, iteration_detail_for: Optional[Set[str]] = None):
        self._loop_cost: Dict[str, int] = {}
        #: (label, invocation) -> list of per-iteration inclusive costs.
        self._iteration_costs: Dict[Tuple[str, int], List[int]] = {}
        self._detail = iteration_detail_for or set()
        self._stack: List[LoopCtx] = []
        self._booked = 0

    def _book(self) -> None:
        steps = self.interp.steps
        n_instrs = steps - self._booked
        if not n_instrs:
            return
        self._booked = steps
        for ctx in self._stack:
            label = ctx.label
            self._loop_cost[label] = self._loop_cost.get(label, 0) + n_instrs
            if label in self._detail:
                key = (label, ctx.invocation)
                costs = self._iteration_costs.setdefault(key, [])
                costs.extend([0] * (ctx.iteration + 1 - len(costs)))
                costs[ctx.iteration] += n_instrs

    # -- loop events -----------------------------------------------------------

    def on_loop_enter(self, label: str, invocation: int) -> None:
        self._book()
        self._stack.append(LoopCtx(label, invocation, 0))

    def on_loop_iteration(self, label: str, invocation: int, iteration: int) -> None:
        self._book()
        self._stack[-1].iteration = iteration

    def on_loop_exit(self, label: str, invocation: int) -> None:
        self._book()
        self._stack.pop()

    # -- results ---------------------------------------------------------------

    @property
    def total_cost(self) -> int:
        """Total instructions executed by the program."""
        self._book()
        return self._booked

    @property
    def loop_cost(self) -> Dict[str, int]:
        """Inclusive instruction count per loop label."""
        self._book()
        return self._loop_cost

    def coverage(self, label: str) -> float:
        """Fraction of program execution spent in the loop (0..1)."""
        if self.total_cost == 0:
            return 0.0
        return self.loop_cost.get(label, 0) / self.total_cost

    def coverage_of(self, labels: Sequence[str]) -> float:
        """Combined coverage of non-nested loops (sums their inclusive cost).

        Callers must pass loops that do not contain one another, otherwise
        shared work would be double-counted.
        """
        if self.total_cost == 0:
            return 0.0
        return sum(self.loop_cost.get(l, 0) for l in labels) / self.total_cost

    def iteration_costs(self, label: str, invocation: int) -> List[int]:
        self._book()
        return list(self._iteration_costs.get((label, invocation), []))

    def invocations(self, label: str) -> List[int]:
        self._book()
        return sorted(
            inv for (lbl, inv) in self._iteration_costs if lbl == label
        )
