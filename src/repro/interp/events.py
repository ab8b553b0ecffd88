"""Observer interface for execution events.

Both backends publish loop-structure events and memory-access events to
registered observers, the one way to watch a run.  Dynamic analyses
(dependence profiling, DiscoPoP, the cost profiler) are implemented as
observers, mirroring how the paper's tools consume LLVM instrumentation
callbacks.

Memory locations are tuples:

* ``("g", name)`` — a global scalar/reference cell;
* ``("f", oid, field)`` — a struct field;
* ``("a", oid, index)`` — an array element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

Location = Tuple


@dataclass
class LoopCtx:
    """One active loop on the dynamic loop-context stack."""

    label: str
    invocation: int
    iteration: int


class Observer:
    """Base class with no-op handlers; subclass what you need.

    Set the ``wants_*`` class attributes to opt into event streams — the
    interpreter skips publication entirely for streams nobody wants, which
    keeps uninstrumented runs fast.  Observers receive the executor via
    :meth:`attach` before execution starts and may read its public dynamic
    state (``steps``, current at loop events; ``loop_stack``, ``call_stack``).
    """

    wants_loops = False
    wants_memory = False

    def attach(self, interp) -> None:
        """Called once before execution; stores the interpreter handle."""
        self.interp = interp

    def on_loop_enter(self, label: str, invocation: int) -> None:
        """Control entered the loop (iteration 0 about to run)."""

    def on_loop_iteration(self, label: str, invocation: int, iteration: int) -> None:
        """A back edge was taken; ``iteration`` just started."""

    def on_loop_exit(self, label: str, invocation: int) -> None:
        """Control left the loop."""

    def on_read(self, loc: Location, instr) -> None:
        """A memory location was read by ``instr``."""

    def on_write(self, loc: Location, instr) -> None:
        """A memory location was written by ``instr``."""
