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

import os
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

# Read and cleared by perfbench/workloads.py::drop_exec_memos.
from repro.interp.codegen import _MODULE_CACHE  # noqa: F401

__all__ = [
    "EXEC_BACKENDS",
    "EXEC_BACKEND_ENV",
    "CompileError",
    "create_executor",
    "resolve_exec_backend",
]

#: Environment knob consulted when no explicit backend is given (lets CI
#: run the whole suite under the codegen backend).
EXEC_BACKEND_ENV = "REPRO_EXEC_BACKEND"

#: Supported execution backends.  Single source of truth: CLI choices
#: and :class:`repro.api.AnalysisConfig` validation both derive from
#: this tuple, so a backend added here is reachable from every surface.
EXEC_BACKENDS = ("interp", "codegen")


def resolve_exec_backend(backend: Optional[str] = None) -> str:
    """Resolve an execution backend name.

    Resolution order: explicit argument, then the ``REPRO_EXEC_BACKEND``
    environment variable, then ``interp``.
    """
    if backend is None:
        backend = os.environ.get(EXEC_BACKEND_ENV, "").strip() or None
    if backend is None:
        return "interp"
    if backend not in EXEC_BACKENDS:
        raise ValueError(
            f"unknown exec backend {backend!r}; expected one of {EXEC_BACKENDS}"
        )
    return backend


def create_executor(
    module: Module,
    runtime: Optional[RuntimeHooks] = None,
    observers=None,
    profiler=None,
    max_steps: Optional[int] = None,
    exec_backend: Optional[str] = None,
    obs_enabled: Optional[bool] = None,
):
    """Build an executor for ``module`` honouring the fallback rules.

    The codegen backend is used only when it can be *exactly* faithful:
    no profiler, no observer that wants call events, and the
    observability context disabled (the interpreter tallies per-run
    instruction and intrinsic metrics that generated code does not
    reproduce).  Loop/memory observers run on codegen's profiled
    lowering.  Everything else — including a module codegen rejects —
    gets the tree-walking interpreter.
    """
    backend = resolve_exec_backend(exec_backend)
    ctx = obs.current()
    if backend == "codegen":
        if observers and any(o.wants_calls for o in observers):
            ctx.count("exec.fallback.observers")
        elif profiler is not None:
            ctx.count("exec.fallback.profiler")
        else:
            if obs_enabled is None:
                obs_enabled = ctx.enabled
            if obs_enabled:
                ctx.count("exec.fallback.obs-enabled")
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
