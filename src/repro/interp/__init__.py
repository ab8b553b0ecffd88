"""Instrumentable IR interpreter, heap model, events, profiler, the
Python-source-codegen execution backend, and backend selection."""

from repro.interp.codegen import (
    CodegenExecutor,
    CodegenProgram,
    CompileError,
    ProfiledCodegenExecutor,
    codegen_stats,
    compile_module_codegen,
    module_digest,
    resolve_codegen_cache_dir,
)
from repro.interp.compiler import create_executor, resolve_exec_backend
from repro.interp.events import Location, LoopCtx, Observer
from repro.interp.interpreter import Interpreter, RuntimeHooks
from repro.interp.profiler import Profiler
from repro.interp.values import (
    ArrayObj,
    Heap,
    MiniCRuntimeError,
    StructObj,
    format_value,
    truthy,
)

__all__ = [
    "ArrayObj",
    "CodegenExecutor",
    "CodegenProgram",
    "CompileError",
    "Heap",
    "Interpreter",
    "Location",
    "LoopCtx",
    "MiniCRuntimeError",
    "Observer",
    "ProfiledCodegenExecutor",
    "Profiler",
    "RuntimeHooks",
    "StructObj",
    "codegen_stats",
    "compile_module_codegen",
    "create_executor",
    "format_value",
    "module_digest",
    "resolve_codegen_cache_dir",
    "resolve_exec_backend",
    "truthy",
]
