"""Reproduction of *Loop Parallelization using Dynamic Commutativity Analysis*
(Vasiladiotis, Castañeda Lozano, Cole, Franke — CGO 2021).

The package is organised as a full compiler pipeline plus the paper's
analysis and evaluation infrastructure:

``repro.lang``
    MiniC front end (lexer, parser, type checker).
``repro.ir``
    Three-address CFG intermediate representation and AST lowering.
``repro.analysis``
    Classic compiler analyses: dominators, loops, liveness, def-use, alias,
    affine dependence testing, idiom recognition.
``repro.interp``
    Instrumentable IR interpreter with memory-event tracing and profiling.
``repro.core``
    Dynamic Commutativity Analysis — the paper's contribution.
``repro.api``
    The embedding facade: frozen ``AnalysisConfig`` + ``AnalysisSession``
    driving analyze/detect/profile/batch (the CLI is an adapter over it).
``repro.cache``
    Persistent content-addressed cache of per-loop dynamic verdicts.
``repro.batch``
    Corpus batch driver: many programs, one pool, recorded failures.
``repro.baselines``
    The five baseline parallelism detectors evaluated against DCA.
``repro.parallel``
    Parallel code generation and the simulated multicore executor.
``repro.benchsuite``
    MiniC ports of the NPB-style and PLDS benchmark programs.
``repro.obs``
    Pipeline-wide observability: spans (Chrome-trace export), metrics,
    structured events — stdlib-only, disabled by default.

Typical use::

    from repro import compile_program
    from repro.api import AnalysisConfig
    from repro.core import DcaAnalyzer

    module = compile_program(source_code)
    report = DcaAnalyzer(module, AnalysisConfig(rtol=1e-7)).analyze()
    for loop in report.commutative_loops():
        print(loop.qualified_name)
"""

from repro.driver import compile_program, run_program

__all__ = ["compile_program", "run_program"]

__version__ = "1.0.0"
