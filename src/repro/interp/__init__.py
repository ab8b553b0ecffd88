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
)
from repro.interp.compiler import create_executor
from repro.interp.events import Location, LoopCtx, Observer
from repro.interp.interpreter import RT_INTRINSICS, Interpreter
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
    "RT_INTRINSICS",
    "StructObj",
    "codegen_stats",
    "compile_module_codegen",
    "create_executor",
    "format_value",
    "module_digest",
    "truthy",
]
