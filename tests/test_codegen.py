"""Python-source codegen execution backend: parity with the interpreter.

The backend's contract is *exact* observable equivalence with the
tree-walking interpreter — same results, printed output, step
accounting, and byte-identical fault messages — plus its own surface:
backend selection and fallback, the per-module memo, the on-disk
artifact cache (warm loads, tamper detection) and pickling of codegen
tasks into process workers.  The profiled lowering's own artifacts get
the same tamper checks, and neither variant may load the other's.
"""

import glob
import json
import os

import pytest

import repro.obs as obs
from repro.analysis.dynamic_deps import DynamicDepProfiler
from repro.api import AnalysisConfig
from repro.cli import main as cli_main
from repro.core.dca import DcaAnalyzer
from repro.core.runtime import DcaRuntime
from repro.driver import compile_program, run_program
from repro.interp import (
    CodegenExecutor,
    CompileError,
    Interpreter,
    MiniCRuntimeError,
    ProfiledCodegenExecutor,
    compile_module_codegen,
    create_executor,
    module_digest,
)
from repro.interp.codegen import (
    _MODULE_CACHE,
    _MODULE_CACHE_MAX,
    CODEGEN_CACHE_ENV,
    _artifact_path,
    codegen_source,
    codegen_stats,
)
from repro.interp.compiler import EXEC_BACKENDS
from repro.interp.events import Observer
from repro.settings import SETTINGS, resolve

EXEC_BACKEND_ENV = SETTINGS["exec_backend"].env

CORPUS = sorted(
    glob.glob(
        os.path.join(os.path.dirname(__file__), "fuzz", "corpus", "*.mc")
    )
)


def _zero():
    return 0.0


def _outcome(executor, entry, args):
    try:
        result = executor.run(entry, args)
        return ("ok", result, executor.output_text(), executor.steps)
    except MiniCRuntimeError as exc:
        return ("fault", str(exc), executor.output_text(), executor.steps)


def assert_parity(source, entry="main", args=None, max_steps=None):
    module = compile_program(source)
    interp = Interpreter(module, max_steps=max_steps)
    codegen = CodegenExecutor(module, max_steps=max_steps)
    oi = _outcome(interp, entry, list(args or []))
    oc = _outcome(codegen, entry, list(args or []))
    assert oi == oc, f"backend divergence:\ninterp  {oi}\ncodegen {oc}"
    return oi


# -- result / output / step / fault parity -----------------------------------

FAULT_PROGRAMS = [
    ("null deref read", "struct P { int x; }\nfunc int main() { P* p = null; return p.x; }"),
    ("null deref write", "struct P { int x; }\nfunc void main() { P* p = null; p.x = 1; }"),
    ("null array read", "func int main() { int[] a = null; return a[0]; }"),
    ("null array write", "func void main() { int[] a = null; a[0] = 1; }"),
    ("oob read", "func int main() { int[] a = new int[3]; return a[3]; }"),
    ("oob write", "func void main() { int[] a = new int[3]; a[0 - 1] = 9; }"),
    ("int div by zero", "func int main() { int z = 0; return 1 / z; }"),
    ("int mod by zero", "func int main() { int z = 0; return 1 % z; }"),
    ("float div by zero", "func float main() { float z = 0.0; return 1.0 / z; }"),
    ("len of null", "func int main() { int[] a = null; return len(a); }"),
    ("negative array length", "func void main() { int n = 0 - 2; int[] a = new int[n]; }"),
    ("builtin domain error", "func float main() { float x = 0.0 - 1.0; return sqrt(x); }"),
]


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
    assert kind == "ok" and result == 285


def test_heap_program_parity():
    kind, result, out, _steps = assert_parity(
        """
        struct Node { int value; Node* next; }
        func int main() {
            Node* head = null;
            for (int i = 0; i < 8; i = i + 1) {
                Node* n = new Node; n.value = i; n.next = head; head = n;
            }
            int total = 0;
            while (head != null) { total = total + head.value; head = head.next; }
            int[] a = new int[5];
            for (int i = 0; i < len(a); i = i + 1) { a[i] = total + i; }
            print(total, a[0], a[4]);
            return total;
        }
        """
    )
    assert (kind, result, out) == ("ok", 28, "28 28 32\n")


CALL_CHAIN_PROGRAMS = [
    """
    func int leaf(int x) { return x * 3 + 1; }
    func int mid(int x) { return leaf(x) + leaf(x - 1); }
    func int main() {
        int acc = 0;
        for (int i = 0; i < 20; i = i + 1) { acc = acc + mid(i); }
        return acc;
    }
    """,
    """
    func int work(int n) {
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) { acc = acc + i; }
        return acc;
    }
    func int main() { return work(50) + work(7); }
    """,
]


def test_call_chain_step_parity():
    for src in CALL_CHAIN_PROGRAMS:
        module = compile_program(src)
        interp = Interpreter(module)
        codegen = CodegenExecutor(module)
        assert interp.run("main", []) == codegen.run("main", [])
        assert interp.steps == codegen.steps


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


def test_undefined_register_message_parity():
    # A loop body that reads a register only written on a path the
    # schedule never took surfaces as the interpreter's undefined-read
    # fault; codegen maps the natural UnboundLocalError back to the
    # same message.
    src = """
    func int main() {
        int acc = 0;
        for (int i = 0; i < 4; i = i + 1) {
            int v = 0;
            if (i > 1) { v = i; }
            acc = acc + v;
        }
        return acc;
    }
    """
    assert_parity(src)


def test_step_limit_fires_at_same_step():
    src = """
    func int main() {
        int acc = 0;
        for (int i = 0; i < 100; i = i + 1) { acc = acc + 1; }
        return acc;
    }
    """
    module = compile_program(src)
    baseline = Interpreter(module)
    baseline.run("main", [])
    for budget in (baseline.steps - 1, baseline.steps // 2, 7):
        oi = _outcome(Interpreter(module, max_steps=budget), "main", [])
        oc = _outcome(CodegenExecutor(module, max_steps=budget), "main", [])
        assert oi == oc
        assert oi[0] == "fault" and oi[1] == "step limit exceeded"


def test_step_limit_exhausts_mid_nested_loop():
    # The step_burner fuzz archetype shape: a nested busy loop where a
    # small budget dies mid-inner-loop; interp and codegen must agree on
    # the exact step count at the fault.
    src = """
    func int main() {
        int acc = 0;
        for (int i = 0; i < 12; i = i + 1) {
            int t = 0;
            while (t < 15) { acc = acc + (t * i) % 7; t = t + 1; }
        }
        return acc;
    }
    """
    for budget in (11, 50, 333):
        assert_parity(src, max_steps=budget)
    # A loop that never ends dies on the budget, not on a timeout.
    kind, message, _o, _steps = assert_parity(
        "func void main() { while (true) { } }", max_steps=500
    )
    assert (kind, message) == ("fault", "step limit exceeded")


def test_missing_entry_and_arity_messages():
    src = "func int add(int a, int b) { return a + b; }"
    module = compile_program(src)
    for make in (lambda: Interpreter(module), lambda: CodegenExecutor(module)):
        with pytest.raises(MiniCRuntimeError, match=r"no function named 'nope'"):
            make().run("nope", [])
        with pytest.raises(MiniCRuntimeError, match=r"add expects 2 args, got 1"):
            make().run("add", [1])
    assert Interpreter(module).run("add", [2, 3]) == CodegenExecutor(
        module
    ).run("add", [2, 3])


def _loop_specs():
    """A one-loop module, its loop label and verify specs."""
    from repro.analysis.purity import EffectAnalysis
    from repro.core.instrument import compute_verify_spec

    module = compile_program(
        """
        func int main() {
            int acc = 0;
            for (int i = 0; i < 4; i = i + 1) { acc = acc + i; }
            return acc;
        }
        """
    )
    func = module.functions["main"]
    label = next(iter(func.loops))
    effects = EffectAnalysis(module)
    specs = {label: compute_verify_spec(module, func, label, effects)}
    return module, label, specs


def _observe_module():
    """An instrumented module: intrinsics appear only in those."""
    from repro.core.instrument import build_observe_module

    module, _label, specs = _loop_specs()
    return build_observe_module(module, specs)


def test_intrinsic_without_runtime_message_parity():
    observe = _observe_module()
    msgs = []
    for make in (
        lambda: Interpreter(observe),
        lambda: CodegenExecutor(observe),
    ):
        with pytest.raises(MiniCRuntimeError) as exc:
            make().run("main", [])
        msgs.append(str(exc.value))
    assert msgs[0] == msgs[1]
    assert "executed without a runtime" in msgs[0]


def test_backends_make_the_same_rt_calls():
    # Any object with the rt_* methods is a runtime: both executors call
    # them with themselves first, then the same arguments in the same
    # order, traced or not.
    from types import SimpleNamespace

    from repro.core.instrument import build_test_module
    from repro.core.schedules import ReverseSchedule
    from repro.interp import RT_INTRINSICS

    module, label, specs = _loop_specs()
    replay = build_test_module(module, label, specs[label]).module

    def recording(calls, executors):
        inner = DcaRuntime(specs, schedule=ReverseSchedule(), capture=())

        def bind(name):
            method = getattr(inner, name)

            def call(executor, *args):
                executors.add(id(executor))
                calls.append((name,) + args)
                return method(executor, *args)

            return call

        return SimpleNamespace(**{n: bind(n) for n in RT_INTRINSICS})

    seen = []
    for enabled in (False, True):
        for make in (Interpreter, CodegenExecutor):
            calls, executors = [], set()
            with obs.enabled() if enabled else obs.disabled():
                executor = make(replay, runtime=recording(calls, executors))
                assert executor.run("main", []) == 6
            assert executors == {id(executor)}
            seen.append(calls)
    assert {call[0] for call in seen[0]} == set(RT_INTRINSICS)
    assert all(calls == seen[0] for calls in seen)


# -- backend selection seam --------------------------------------------------


def test_codegen_in_exec_backends():
    assert EXEC_BACKENDS == ("interp", "codegen")


def test_resolve_exec_backend_codegen(monkeypatch):
    monkeypatch.delenv(EXEC_BACKEND_ENV, raising=False)
    assert resolve("exec_backend") == "codegen"
    assert resolve("exec_backend", "codegen") == "codegen"
    monkeypatch.setenv(EXEC_BACKEND_ENV, "codegen")
    assert resolve("exec_backend") == "codegen"
    # Explicit flag beats the env var for every backend.
    for explicit in EXEC_BACKENDS:
        assert resolve("exec_backend", explicit) == explicit
    with pytest.raises(ValueError):
        create_executor(_fresh(SRC), exec_backend="jit")
    monkeypatch.setenv(EXEC_BACKEND_ENV, "bogus")
    with pytest.raises(ValueError):
        resolve("exec_backend")


def test_compiled_backend_is_unknown(monkeypatch, capsys):
    # No alias or shim for the removed closure-compiled backend: every
    # surface rejects its name like any unknown backend.
    removed = "compiled"
    monkeypatch.delenv(EXEC_BACKEND_ENV, raising=False)
    with pytest.raises(ValueError, match=r"unknown exec backend 'compiled'; "
                       r"expected one of \('interp', 'codegen'\)"):
        create_executor(_fresh(SRC), exec_backend=removed)
    with pytest.raises(ValueError, match="unknown exec backend 'compiled'"):
        AnalysisConfig(exec_backend=removed)
    monkeypatch.setenv(EXEC_BACKEND_ENV, removed)
    with pytest.raises(ValueError, match="REPRO_EXEC_BACKEND must be one of "
                       "interp, codegen, got 'compiled'"):
        resolve("exec_backend")
    monkeypatch.delenv(EXEC_BACKEND_ENV)
    with pytest.raises(SystemExit) as exc:
        cli_main(["analyze", "examples/array_map.mc",
                  "--exec-backend", removed, "--no-cache"])
    assert exc.value.code == 2
    assert "invalid choice: 'compiled'" in capsys.readouterr().err


def test_create_executor_codegen_and_fallback():
    module = compile_program("func int main() { return 41 + 1; }")
    assert isinstance(create_executor(module, exec_backend="interp"), Interpreter)
    codegen = create_executor(module, exec_backend="codegen")
    assert isinstance(codegen, CodegenExecutor)
    assert codegen.run("main", []) == 42
    # Observers run on the profiled lowering; an enabled obs context
    # does not change the executor either.
    assert isinstance(
        create_executor(module, observers=[Observer()], exec_backend="codegen"),
        ProfiledCodegenExecutor,
    )
    with obs.enabled():
        observed = create_executor(module, exec_backend="codegen")
        assert isinstance(observed, CodegenExecutor)
        assert observed.run("main", []) == 42


def test_run_program_codegen_backend():
    src = 'func void main() { print("hi", 1 + 1); }'
    assert run_program(src, exec_backend="interp") == (None, "hi 2\n")
    assert run_program(src, exec_backend="codegen") == (None, "hi 2\n")


def test_compile_module_codegen_is_cached_per_module():
    module = compile_program("func int main() { return 7; }")
    program = compile_module_codegen(module, cache_dir="")
    assert compile_module_codegen(module, cache_dir="") is program
    # The plain and profiled lowerings are memoized side by side.
    profiled = compile_module_codegen(module, cache_dir="", profiled=True)
    assert profiled is not program and profiled.profiled
    key = (id(module), False)
    assert key in _MODULE_CACHE
    # The LRU is bounded: flooding it with fresh modules evicts ours.
    keep = []
    for i in range(_MODULE_CACHE_MAX + 1):
        other = compile_program(f"func int main() {{ return {i}; }}")
        keep.append(other)
        compile_module_codegen(other, cache_dir="")
    assert key not in _MODULE_CACHE
    assert len(_MODULE_CACHE) <= _MODULE_CACHE_MAX
    # Recompilation after eviction still works and re-caches.
    again = compile_module_codegen(module, cache_dir="")
    assert CodegenExecutor(again).run("main", []) == 7
    assert key in _MODULE_CACHE


# -- disk artifact cache -----------------------------------------------------


def _fresh(src):
    """A fresh Module object (new id) for the same source text."""
    return compile_program(src)


SRC = """
func int main() {
    int acc = 0;
    for (int i = 0; i < 9; i = i + 1) { acc = acc + i * 2; }
    print(acc);
    return acc;
}
"""


def test_disk_cache_cold_then_warm(tmp_path):
    cache_dir = str(tmp_path)
    before = dict(codegen_stats())
    compile_module_codegen(_fresh(SRC), cache_dir=cache_dir)
    mid = dict(codegen_stats())
    assert mid["compiles"] - before["compiles"] == 1
    assert mid["disk_misses"] - before["disk_misses"] == 1
    digest = module_digest(_fresh(SRC))
    assert os.path.exists(_artifact_path(cache_dir, digest))

    # A fresh module object defeats the id-keyed memo; the digest-keyed
    # artifact must serve the compile.
    program = compile_module_codegen(_fresh(SRC), cache_dir=cache_dir)
    after = dict(codegen_stats())
    assert after["compiles"] == mid["compiles"]
    assert after["disk_hits"] - mid["disk_hits"] == 1
    executor = CodegenExecutor(program)
    assert executor.run("main", []) == 72
    assert executor.output_text() == "72\n"


def test_disk_cache_env_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv(CODEGEN_CACHE_ENV, str(tmp_path / "fromenv"))
    assert resolve("codegen_cache_dir") == str(tmp_path / "fromenv")
    # Explicit argument beats the env; empty string disables.
    assert resolve("codegen_cache_dir", str(tmp_path / "arg")) == str(
        tmp_path / "arg"
    )
    assert resolve("codegen_cache_dir", "") is None
    monkeypatch.delenv(CODEGEN_CACHE_ENV, raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "base"))
    assert resolve("codegen_cache_dir") == str(tmp_path / "base" / "codegen")
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    assert resolve("codegen_cache_dir") is None


TAMPERS = ["flip-payload", "truncate", "garbage", "wrong-magic"]


def _tamper(path, tamper):
    """Corrupt the artifact at ``path``; returns its original bytes."""
    blob = open(path, "rb").read()
    if tamper == "flip-payload":
        corrupted = blob[:-3] + bytes([blob[-3] ^ 0xFF]) + blob[-2:]
    elif tamper == "truncate":
        corrupted = blob[: len(blob) // 2]
    elif tamper == "garbage":
        corrupted = b"\x00" * len(blob)
    else:
        corrupted = b"XXXX" + blob[4:]
    with open(path, "wb") as fh:
        fh.write(corrupted)
    return blob


def test_artifact_key_covers_source_lines(tmp_path):
    # Two programs that print alike but fault on different lines: the
    # second must not load the first one's artifact, whose fault
    # message would name the wrong line.
    from repro.ir.printer import format_module

    cache_dir = str(tmp_path)
    line2 = "struct P { int x; }\nfunc int main() { P* p = null; return p.x; }"
    line3 = "struct P { int x; }\nfunc int main() { P* p = null;\n    return p.x; }"
    assert format_module(_fresh(line2)) == format_module(_fresh(line3))
    assert module_digest(_fresh(line2)) != module_digest(_fresh(line3))
    for src, line in ((line2, 2), (line3, 3)):
        program = compile_module_codegen(_fresh(src), cache_dir=cache_dir)
        with pytest.raises(MiniCRuntimeError) as exc:
            CodegenExecutor(program).run("main", [])
        assert str(exc.value) == f"null dereference reading .x (line {line})"


@pytest.mark.parametrize("tamper", TAMPERS)
def test_disk_cache_tamper_recompiles_never_wrong(tmp_path, tamper):
    cache_dir = str(tmp_path)
    compile_module_codegen(_fresh(SRC), cache_dir=cache_dir)
    digest = module_digest(_fresh(SRC))
    path = _artifact_path(cache_dir, digest)
    blob = _tamper(path, tamper)

    before = dict(codegen_stats())
    program = compile_module_codegen(_fresh(SRC), cache_dir=cache_dir)
    after = dict(codegen_stats())
    # The corrupt artifact is rejected (a miss, never an exception or a
    # wrong program) and the module recompiles from source.
    assert after["compiles"] - before["compiles"] == 1
    assert after["disk_misses"] - before["disk_misses"] == 1
    executor = CodegenExecutor(program)
    assert executor.run("main", []) == 72
    assert executor.output_text() == "72\n"
    # The rewrite repaired the artifact for the next cold process.
    assert open(path, "rb").read() == blob


#: Memory accesses in nested loops: a profile with edges to get wrong.
PROF_SRC = """
int total;
func int main() {
    int[] a = new int[6];
    for (int i = 0; i < 6; i = i + 1) { a[i] = i; }
    for (int r = 0; r < 3; r = r + 1) {
        for (int i = 1; i < 6; i = i + 1) { a[i] = a[i - 1] + a[i]; }
        total = total + a[5];
    }
    return total;
}
"""

#: Another module with the same function names as PROF_SRC.
FOREIGN_SRC = """
int g;
func int main() {
    for (int i = 0; i < 4; i = i + 1) { g = g + i; }
    return g;
}
"""


def _profile(module, program=None):
    """(result, steps, edges, max_trips) of one profiled run."""
    profiler = DynamicDepProfiler(module)
    if program is None:
        executor = Interpreter(module, observers=[profiler])
    else:
        executor = ProfiledCodegenExecutor(program, observers=[profiler])
    result = executor.run("main", [])
    edges = {label: d.edges for label, d in profiler.loop_deps.items()}
    return result, executor.steps, edges, profiler.max_trips


def _assert_profiled_recompile(cache_dir, src=PROF_SRC):
    """A fresh profiled compile of ``src`` misses the disk, recompiles,
    and profiles exactly like the interpreter."""
    before = dict(codegen_stats())
    module = _fresh(src)
    program = compile_module_codegen(module, cache_dir=cache_dir, profiled=True)
    after = dict(codegen_stats())
    assert after["compiles"] - before["compiles"] == 1
    assert after["disk_misses"] - before["disk_misses"] == 1
    assert _profile(module, program) == _profile(module)


def test_profiled_disk_cache_cold_then_warm(tmp_path):
    cache_dir = str(tmp_path)
    _assert_profiled_recompile(cache_dir)
    digest = module_digest(_fresh(PROF_SRC))
    assert os.path.exists(_artifact_path(cache_dir, digest, profiled=True))
    before = dict(codegen_stats())
    module = _fresh(PROF_SRC)
    program = compile_module_codegen(module, cache_dir=cache_dir, profiled=True)
    after = dict(codegen_stats())
    assert after["compiles"] == before["compiles"]
    assert after["disk_hits"] - before["disk_hits"] == 1
    assert _profile(module, program) == _profile(module)


@pytest.mark.parametrize("tamper", TAMPERS)
def test_profiled_disk_cache_tamper_recompiles_never_wrong(tmp_path, tamper):
    cache_dir = str(tmp_path)
    compile_module_codegen(_fresh(PROF_SRC), cache_dir=cache_dir, profiled=True)
    path = _artifact_path(cache_dir, module_digest(_fresh(PROF_SRC)), True)
    blob = _tamper(path, tamper)
    _assert_profiled_recompile(cache_dir)
    assert open(path, "rb").read() == blob


def test_profiled_foreign_artifact_recompiles(tmp_path):
    # A valid profiled artifact of another module, with the same function
    # names, planted under this module's digest: its site table indices
    # would attribute accesses to the wrong instructions.
    cache_dir = str(tmp_path)
    compile_module_codegen(
        _fresh(FOREIGN_SRC), cache_dir=cache_dir, profiled=True
    )
    foreign = _artifact_path(
        cache_dir, module_digest(_fresh(FOREIGN_SRC)), profiled=True
    )
    path = _artifact_path(cache_dir, module_digest(_fresh(PROF_SRC)), True)
    with open(foreign, "rb") as src, open(path, "wb") as dst:
        dst.write(src.read())
    _assert_profiled_recompile(cache_dir)


def test_plain_and_profiled_artifacts_never_load_each_other(tmp_path):
    cache_dir = str(tmp_path)
    digest = module_digest(_fresh(PROF_SRC))
    plain_path = _artifact_path(cache_dir, digest)
    profiled_path = _artifact_path(cache_dir, digest, profiled=True)
    assert plain_path != profiled_path

    # Plain code under the profiled name would publish no events.
    compile_module_codegen(_fresh(PROF_SRC), cache_dir=cache_dir)
    os.replace(plain_path, profiled_path)
    _assert_profiled_recompile(cache_dir)

    # Profiled code under the plain name must not serve plain runs.
    os.replace(profiled_path, plain_path)
    before = dict(codegen_stats())
    module = _fresh(PROF_SRC)
    program = compile_module_codegen(module, cache_dir=cache_dir)
    after = dict(codegen_stats())
    assert after["compiles"] - before["compiles"] == 1
    assert after["disk_misses"] - before["disk_misses"] == 1
    assert not program.profiled
    assert CodegenExecutor(program).run("main", []) == Interpreter(
        module
    ).run("main", [])


def test_codegen_source_is_deterministic():
    a = codegen_source(compile_program(SRC))
    b = codegen_source(compile_program(SRC))
    assert a == b
    assert "def _fn_0_main" in a


def test_compile_error_for_unknown_shape():
    class Bogus:
        pass

    module = compile_program(SRC)
    module.functions["main"].blocks[
        module.functions["main"].entry
    ].instrs.insert(0, Bogus())
    with pytest.raises(CompileError):
        compile_module_codegen(module, cache_dir="")


# -- analyzer integration ----------------------------------------------------


def test_codegen_analyzer_report_matches_interp():
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
            compile_program(src),
            AnalysisConfig(static_filter=False, exec_backend="interp"),
        ).analyze()
        rc = DcaAnalyzer(
            compile_program(src),
            AnalysisConfig(static_filter=False, exec_backend="codegen"),
        ).analyze()
    assert ri.to_json() == rc.to_json()
    # The backend choice is run metadata, never serialized.
    assert "exec_backend" not in ri.to_json()
    assert ri.exec_backend == "interp" and rc.exec_backend == "codegen"


def test_codegen_pickles_into_process_workers():
    # Process workers receive the module as a pickled blob and compile
    # codegen programs worker-side; the report must match serial interp.
    src = open(CORPUS[0]).read()
    with obs.disabled(clock=_zero):
        serial = DcaAnalyzer(
            compile_program(src),
            AnalysisConfig(
                static_filter=False, backend="serial", exec_backend="interp",
            ),
        ).analyze()
        process = DcaAnalyzer(
            compile_program(src),
            AnalysisConfig(
                static_filter=False,
                backend="process",
                jobs=2,
                exec_backend="codegen",
            ),
        ).analyze()
    assert serial.to_json() == process.to_json()


def test_corpus_warm_disk_replay_byte_identical(tmp_path, monkeypatch):
    # Corpus program, cold then warm artifact cache: the warm analysis
    # compiles zero modules and its report stays byte-identical to the
    # interpreter's.
    monkeypatch.setenv(CODEGEN_CACHE_ENV, str(tmp_path))
    path = next(p for p in CORPUS if "permuted_fault" in p)
    src = open(path).read()
    with obs.disabled(clock=_zero):
        interp = DcaAnalyzer(
            compile_program(src),
            AnalysisConfig(static_filter=False, exec_backend="interp"),
        ).analyze()
        cold = DcaAnalyzer(
            compile_program(src),
            AnalysisConfig(static_filter=False, exec_backend="codegen"),
        ).analyze()
        before = dict(codegen_stats())
        warm = DcaAnalyzer(
            compile_program(src),
            AnalysisConfig(static_filter=False, exec_backend="codegen"),
        ).analyze()
        after = dict(codegen_stats())
    assert interp.to_json() == cold.to_json() == warm.to_json()
    assert after["compiles"] == before["compiles"]
    assert after["disk_hits"] > before["disk_hits"]


def test_profile_falls_back_to_interp_on_corpus_program():
    # --profile runs the requested codegen backend (only call observers
    # and the cost profiler interpret); the session must still produce
    # correct verdicts.
    from repro.api import AnalysisConfig, AnalysisSession

    path = CORPUS[0]
    src = open(path).read()
    with open(path.replace(".mc", ".expect.json")) as fh:
        expected = json.load(fh)
    config = AnalysisConfig(
        static_filter=False, exec_backend="codegen", cache_mode="off",
    )
    try:
        with AnalysisSession(config) as session:
            report, _ctx = session.profile(src)
    finally:
        obs.disable()
    got = {label: report.results[label].verdict for label in report.results}
    assert got == expected
