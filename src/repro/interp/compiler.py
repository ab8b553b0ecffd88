"""Execution-backend selection.

Two backends execute IR modules: the tree-walking
:class:`~repro.interp.interpreter.Interpreter` (``interp``), which is
the event-stream reference for observers and profiling, and the
Python-source codegen backend (``codegen``, :mod:`repro.interp.codegen`),
the fast path for golden runs, schedule replays and the dependence
profile.  :func:`create_executor` encodes when codegen may be used
without changing a single observable: whenever it cannot be exactly
faithful, the interpreter runs instead.
"""

from __future__ import annotations

from typing import Optional

import repro.obs as obs
from repro.interp.codegen import (
    CodegenExecutor,
    CompileError,
    ProfiledCodegenExecutor,
    compile_module_codegen,
)
from repro.interp.interpreter import Interpreter, RuntimeHooks
from repro.ir.function import Module
from repro.settings import SETTINGS, resolve

# Read and cleared by perfbench/workloads.py::drop_exec_memos.
from repro.interp.codegen import _MODULE_CACHE  # noqa: F401

__all__ = [
    "EXEC_BACKENDS",
    "CompileError",
    "create_executor",
]

#: Supported execution backends.  Single source of truth: CLI choices,
#: :class:`repro.api.AnalysisConfig` validation and the
#: ``REPRO_EXEC_BACKEND`` row of :mod:`repro.settings` share this tuple,
#: so a backend added there is reachable from every surface.
EXEC_BACKENDS = SETTINGS["exec_backend"].choices


def create_executor(
    module: Module,
    runtime: Optional[RuntimeHooks] = None,
    observers=None,
    profiler=None,
    max_steps: Optional[int] = None,
    exec_backend: Optional[str] = None,
):
    """Build an executor for ``module`` honouring the fallback rules.

    The codegen backend is used only when it can be *exactly* faithful:
    no profiler and no observer that wants call events (an enabled obs
    context does not matter).  Loop/memory observers run on codegen's
    profiled lowering.  Everything else — including a module codegen
    rejects — gets the tree-walking interpreter.  ``exec_backend=None``
    defers to ``REPRO_EXEC_BACKEND``, then ``interp``.
    """
    backend = resolve("exec_backend", exec_backend)
    if backend not in EXEC_BACKENDS:
        raise ValueError(
            f"unknown exec backend {backend!r}; expected one of {EXEC_BACKENDS}"
        )
    ctx = obs.current()
    if backend == "codegen":
        if observers and any(o.wants_calls for o in observers):
            ctx.count("exec.fallback.observers")
        elif profiler is not None:
            ctx.count("exec.fallback.profiler")
        else:
            try:
                program = compile_module_codegen(
                    module, profiled=bool(observers)
                )
            except CompileError:
                ctx.count("exec.fallback.compile-error")
            else:
                ctx.count("exec.backend.codegen")
                if observers:
                    return ProfiledCodegenExecutor(
                        program,
                        runtime=runtime,
                        observers=observers,
                        max_steps=max_steps,
                    )
                return CodegenExecutor(
                    program, runtime=runtime, max_steps=max_steps
                )
    ctx.count("exec.backend.interp")
    return Interpreter(
        module,
        runtime=runtime,
        observers=observers,
        profiler=profiler,
        max_steps=max_steps,
    )
