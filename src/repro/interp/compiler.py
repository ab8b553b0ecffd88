"""Execution-backend selection.

Two backends execute IR modules: the Python-source codegen backend
(``codegen``, the default, :mod:`repro.interp.codegen`) and the
tree-walking :class:`~repro.interp.interpreter.Interpreter`
(``interp``), the reference the differential tests hold codegen to.
:func:`select_executor` is the one selection rule.
"""

from __future__ import annotations

from typing import Callable, Optional

import repro.obs as obs
from repro.interp.codegen import (
    CodegenExecutor,
    CodegenProgram,
    CompileError,
    ProfiledCodegenExecutor,
    compile_module_codegen,
)
from repro.interp.interpreter import Interpreter
from repro.ir.function import Module
from repro.settings import SETTINGS, resolve

# Read and cleared by perfbench/workloads.py::drop_exec_memos.
from repro.interp.codegen import _MODULE_CACHE  # noqa: F401

__all__ = [
    "EXEC_BACKENDS",
    "CompileError",
    "create_executor",
    "select_executor",
]

#: Supported execution backends.  Single source of truth: CLI choices,
#: :class:`repro.api.AnalysisConfig` validation and the
#: ``REPRO_EXEC_BACKEND`` row of :mod:`repro.settings` share this tuple,
#: so a backend added there is reachable from every surface.
EXEC_BACKENDS = SETTINGS["exec_backend"].choices


def create_executor(
    module: Module,
    runtime=None,
    observers=None,
    max_steps: Optional[int] = None,
    exec_backend: Optional[str] = None,
):
    """Build an executor for ``module`` (see :func:`select_executor`).
    ``exec_backend=None`` defers to ``REPRO_EXEC_BACKEND``, then
    ``codegen``."""
    return select_executor(
        exec_backend,
        lambda: compile_module_codegen(module, profiled=bool(observers)),
        lambda: module,
        runtime=runtime,
        observers=observers,
        max_steps=max_steps,
    )


def select_executor(
    exec_backend: Optional[str],
    compile_program: Callable[[], CodegenProgram],
    load_module: Callable[[], Module],
    runtime=None,
    observers=None,
    max_steps: Optional[int] = None,
):
    """The executor for one run under ``exec_backend``: codegen on
    ``compile_program()`` (profiled when there are observers; an
    enabled obs context changes nothing), or the interpreter on
    ``load_module()`` — also when codegen raises :class:`CompileError`.
    Schedule replays pass their blob-keyed compile memo here.  Counts
    ``exec.backend.<backend>`` and ``exec.fallback.compile-error``."""
    backend = resolve("exec_backend", exec_backend)
    if backend not in EXEC_BACKENDS:
        raise ValueError(
            f"unknown exec backend {backend!r}; expected one of {EXEC_BACKENDS}"
        )
    ctx = obs.current()
    if backend == "codegen":
        try:
            program = compile_program()
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
        load_module(), runtime=runtime, observers=observers,
        max_steps=max_steps,
    )
