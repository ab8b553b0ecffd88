"""End-to-end convenience drivers: source text → IR module → execution."""

from __future__ import annotations

from typing import List, Optional, Tuple

import repro.obs as obs

from repro.lang.checker import check
from repro.lang.parser import parse
from repro.ir.function import Module
from repro.ir.lowering import lower
from repro.ir.verify import verify_module


def compile_program(source: str, verify: bool = True, optimize: bool = True) -> Module:
    """Compile MiniC source text to a verified IR module.

    ``optimize`` runs the standard cleanup pipeline (copy fusion), which
    also canonicalizes induction/reduction shapes for the analyses.
    """
    from repro.ir.passes import run_cleanups

    program = parse(source)
    checked = check(program)
    module = lower(checked)
    if optimize:
        run_cleanups(module)
    if verify:
        verify_module(module)
    return module


def run_program(
    source_or_module,
    entry: str = "main",
    args: Optional[List[object]] = None,
    max_steps: Optional[int] = None,
    exec_backend: Optional[str] = None,
) -> Tuple[object, str]:
    """Compile (if needed) and execute a program.

    Returns ``(return_value, captured_stdout)``.  ``exec_backend``
    selects the Python-source codegen backend (``codegen``) or
    tree-walking interpretation (``interp``); None defers to
    ``REPRO_EXEC_BACKEND``, then ``codegen``.
    """
    from repro.interp.compiler import create_executor

    if isinstance(source_or_module, Module):
        module = source_or_module
    else:
        module = compile_program(source_or_module)
    interp = create_executor(
        module, max_steps=max_steps, exec_backend=exec_backend
    )
    result = interp.run(entry, args or [])
    return result, interp.output_text()

