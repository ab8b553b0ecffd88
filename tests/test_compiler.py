"""Backend selection (``repro.interp.compiler``): every backend is exact.

Whichever backend :func:`create_executor` hands out — chosen explicitly
or through ``REPRO_EXEC_BACKEND`` — must be observably identical to the
tree-walking interpreter: same results, printed output, step accounting
and byte-identical fault messages.  These tests go through the selection
seam for every name in ``EXEC_BACKENDS`` and compare everything;
``tests/test_codegen.py`` drives the codegen executor directly.
"""

import pytest

import repro.obs as obs
from repro.core.dca import DcaAnalyzer
from repro.driver import compile_program, run_program
from repro.interp import (
    CodegenExecutor,
    Interpreter,
    MiniCRuntimeError,
    ProfiledCodegenExecutor,
    create_executor,
)
from repro.interp.compiler import EXEC_BACKENDS
from repro.interp.events import Observer
from repro.settings import SETTINGS, resolve

from test_codegen import FAULT_PROGRAMS

#: The executor class each backend name must select when nothing forces
#: a fallback.
EXPECTED_EXECUTOR = {"interp": Interpreter, "codegen": CodegenExecutor}

EXEC_BACKEND_ENV = SETTINGS["exec_backend"].env


def _zero():
    return 0.0


def _executors(module, max_steps=None):
    """One executor per backend, each built through the selection seam."""
    executors = {}
    for backend in EXEC_BACKENDS:
        executor = create_executor(
            module, max_steps=max_steps, exec_backend=backend
        )
        assert type(executor) is EXPECTED_EXECUTOR[backend]
        executors[backend] = executor
    return executors


def _outcome(executor, entry, args):
    try:
        result = executor.run(entry, args)
        return ("ok", result, executor.output_text(), executor.steps)
    except MiniCRuntimeError as exc:
        return ("fault", str(exc), executor.output_text(), executor.steps)


def assert_parity(source, entry="main", args=None, max_steps=None):
    executors = _executors(compile_program(source), max_steps)
    outcomes = {
        backend: _outcome(executor, entry, list(args or []))
        for backend, executor in executors.items()
    }
    reference = outcomes["interp"]
    for backend, outcome in outcomes.items():
        assert outcome == reference, (
            f"backend divergence:\ninterp {reference}\n{backend} {outcome}"
        )
    return reference


# -- result / output / step parity -------------------------------------------


def test_arithmetic_parity():
    kind, result, out, steps = assert_parity(
        """
        func int main() {
            int acc = 0;
            for (int i = 0; i < 10; i = i + 1) { acc = acc + i * i; }
            print(acc, 7 / 2, -7 / 2, 7 % 3, -7 % 3, 1.0 / 4.0);
            return acc;
        }
        """
    )
    assert (kind, result) == ("ok", 285)
    assert out == "285 3 -3 1 -1 0.25\n"


def test_step_counts_identical():
    src = """
    func int work(int n) {
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) { acc = acc + i; }
        return acc;
    }
    func int main() { return work(50) + work(7); }
    """
    kind, result, _out, steps = assert_parity(src)
    assert (kind, result) == ("ok", 1225 + 21)
    assert steps > 0


# -- fault parity ------------------------------------------------------------


@pytest.mark.parametrize(
    "source", [p[1] for p in FAULT_PROGRAMS], ids=[p[0] for p in FAULT_PROGRAMS]
)
def test_fault_message_parity(source):
    kind, message, _out, _steps = assert_parity(source)
    assert kind == "fault"


def test_fault_messages_include_line_numbers():
    src = "struct P { int x; }\nfunc int main() { P* p = null;\n    return p.x; }"
    kind, message, _o, _s = assert_parity(src)
    assert kind == "fault"
    assert "null dereference reading .x (line 3)" == message


def test_step_limit_parity():
    src = "func void main() { while (true) { } }"
    kind, message, _o, steps = assert_parity(src, max_steps=500)
    assert kind == "fault"
    assert message == "step limit exceeded"


def test_step_limit_fires_at_same_step():
    src = """
    func int main() {
        int acc = 0;
        for (int i = 0; i < 100; i = i + 1) { acc = acc + 1; }
        return acc;
    }
    """
    baseline = Interpreter(compile_program(src))
    baseline.run("main", [])
    # Any budget below the full run must fault at the identical count.
    for budget in (baseline.steps - 1, baseline.steps // 2, 7):
        kind, message, _o, steps = assert_parity(src, max_steps=budget)
        assert (kind, message) == ("fault", "step limit exceeded")


def test_missing_entry_and_arity_messages():
    module = compile_program("func int add(int a, int b) { return a + b; }")
    for backend in EXEC_BACKENDS:
        make = lambda: create_executor(  # noqa: E731
            module, exec_backend=backend
        )
        with pytest.raises(MiniCRuntimeError, match=r"no function named 'nope'"):
            make().run("nope", [])
        with pytest.raises(MiniCRuntimeError, match=r"add expects 2 args, got 1"):
            make().run("add", [1])
        assert make().run("add", [2, 3]) == 5


# -- backend selection seam --------------------------------------------------


def test_resolve_exec_backend_explicit_env_default(monkeypatch):
    module = compile_program("func int main() { return 1; }")
    monkeypatch.delenv(EXEC_BACKEND_ENV, raising=False)
    assert resolve("exec_backend") == "interp"
    for backend in EXEC_BACKENDS:
        assert resolve("exec_backend", backend) == backend
        monkeypatch.setenv(EXEC_BACKEND_ENV, backend)
        assert resolve("exec_backend") == backend
        # An explicit name beats the environment.
        for explicit in EXEC_BACKENDS:
            assert resolve("exec_backend", explicit) == explicit
    monkeypatch.setenv(EXEC_BACKEND_ENV, "  ")
    assert resolve("exec_backend") == "interp"
    with pytest.raises(ValueError):
        create_executor(module, exec_backend="jit")
    monkeypatch.setenv(EXEC_BACKEND_ENV, "bogus")
    with pytest.raises(ValueError, match=EXEC_BACKEND_ENV):
        resolve("exec_backend")
    with pytest.raises(ValueError, match=EXEC_BACKEND_ENV):
        create_executor(module)


def test_create_executor_backend_and_fallback(monkeypatch):
    module = compile_program("func int main() { return 41 + 1; }")
    for backend, executor in _executors(module).items():
        assert executor.run("main", []) == 42
    # With no explicit name the environment picks the backend.
    monkeypatch.setenv(EXEC_BACKEND_ENV, "codegen")
    assert type(create_executor(module)) is CodegenExecutor
    monkeypatch.delenv(EXEC_BACKEND_ENV)
    assert type(create_executor(module)) is Interpreter

    # Only codegen ever falls back; the interpreter serves every caller.
    class CallObserver(Observer):
        wants_calls = True

    for backend in EXEC_BACKENDS:
        executor = create_executor(
            module, exec_backend=backend, observers=[CallObserver()]
        )
        assert type(executor) is Interpreter
        assert executor.run("main", []) == 42
    # An enabled obs context never forces a fallback: each backend runs
    # itself and publishes the same per-run counters.
    for backend in EXEC_BACKENDS:
        with obs.enabled() as ctx:
            executor = create_executor(module, exec_backend=backend)
            assert type(executor) is EXPECTED_EXECUTOR[backend]
            assert executor.run("main", []) == 42
            counters = ctx.metrics.to_dict()["counters"]
        assert counters[f"exec.backend.{backend}"] == 1
        assert counters["interp.runs"] == 1
        assert counters["interp.instructions"] == executor.steps
        assert not any(name.startswith("exec.fallback.") for name in counters)
    loop_observed = create_executor(
        module, observers=[Observer()], exec_backend="codegen"
    )
    assert type(loop_observed) is ProfiledCodegenExecutor
    assert loop_observed.run("main", []) == 42


def test_run_program_exec_backend_threading(monkeypatch):
    src = 'func void main() { print("hi", 1 + 1); }'
    for backend in EXEC_BACKENDS:
        assert run_program(src, exec_backend=backend) == (None, "hi 2\n")
        monkeypatch.setenv(EXEC_BACKEND_ENV, backend)
        assert run_program(src) == (None, "hi 2\n")


def test_compiled_analyzer_report_matches_interp(monkeypatch):
    # The compiled (codegen) path, picked up from the environment rather
    # than an explicit argument, reports exactly what the interpreter does.
    src = """
    func int main() {
        int[] data = new int[16];
        int acc = 0;
        for (int i = 0; i < len(data); i = i + 1) { data[i] = i * 3; }
        for (int i = 0; i < len(data); i = i + 1) { acc = acc + data[i]; }
        print(acc);
        return acc;
    }
    """
    with obs.disabled(clock=_zero):
        ri = DcaAnalyzer(
            compile_program(src), static_filter=False, exec_backend="interp"
        ).analyze()
        monkeypatch.setenv(EXEC_BACKEND_ENV, "codegen")
        rc = DcaAnalyzer(compile_program(src), static_filter=False).analyze()
    assert ri.to_json() == rc.to_json()
    # The backend choice is run metadata, never serialized.
    assert "exec_backend" not in ri.to_json()
    assert ri.exec_backend == "interp" and rc.exec_backend == "codegen"
