"""Dependence profiling on codegen's profiled lowering.

The profiled run must leave :class:`DynamicDepProfiler` in exactly the
state the interpreter leaves it in — the profile summary (trip counts,
dependence pairs by kind, each carried pair's privatization flag), step
count and fault message — and must
publish the interpreter's loop and memory event stream in the same
order, including on early returns from nested loops, recursion and
faults.  The profile summary the analyzer keeps must be equal too, on
the suite, the fuzz corpus and the examples.
"""

import glob
import os
import sys

import pytest

from repro.baselines import (
    DependenceProfilingDetector,
    DiscoPopDetector,
    build_context,
)
from repro.benchsuite import ALL_BENCHMARKS
from repro.driver import compile_program
from repro.interp import (
    Interpreter,
    MiniCRuntimeError,
    ProfiledCodegenExecutor,
    create_executor,
)
from repro.interp.events import Observer
from repro.ir.instructions import Reg, StoreGlobal

from test_codegen import FAULT_PROGRAMS

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "fuzz"))
from diffharness import profile_parity_check  # noqa: E402

CORPUS = sorted(
    glob.glob(
        os.path.join(os.path.dirname(__file__), "fuzz", "corpus", "*.mc")
    )
)
EXAMPLES = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "..", "examples", "*.mc"))
)


@pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
def test_suite_profile_parity(bench):
    assert bench.entry == "main"
    assert profile_parity_check(bench.source) == []


@pytest.mark.parametrize("path", CORPUS + EXAMPLES, ids=os.path.basename)
def test_corpus_profile_parity(path):
    with open(path) as fh:
        assert profile_parity_check(fh.read()) == []


# -- event stream -----------------------------------------------------------


class Recorder(Observer):
    """Logs every loop and memory event with the dynamic state an
    observer may read at that moment."""

    wants_loops = True
    wants_memory = True

    def __init__(self):
        self.log = []

    def _state(self):
        return (
            tuple(
                (c.label, c.invocation, c.iteration)
                for c in self.interp.loop_stack
            ),
            tuple(id(c) for c in self.interp.call_stack),
        )

    def on_loop_enter(self, label, invocation):
        self.log.append(("enter", label, invocation, self._state()))

    def on_loop_iteration(self, label, invocation, iteration):
        self.log.append(("iter", label, invocation, iteration, self._state()))

    def on_loop_exit(self, label, invocation):
        self.log.append(("exit", label, invocation, self._state()))

    def on_read(self, loc, instr):
        self.log.append(("read", loc, id(instr), self._state()))

    def on_write(self, loc, instr):
        self.log.append(("write", loc, id(instr), self._state()))


def _record(module, exec_backend, max_steps=None):
    recorder = Recorder()
    executor = create_executor(
        module,
        observers=[recorder],
        max_steps=max_steps,
        exec_backend=exec_backend,
    )
    try:
        result = ("ok", executor.run("main", []))
    except MiniCRuntimeError as exc:
        result = ("fault", str(exc))
    return executor, (result, executor.steps, recorder.log)


def assert_same_events(module, max_steps=None):
    """Both backends publish the same events, in order; returns them."""
    interp, expected = _record(module, "interp", max_steps)
    codegen, got = _record(module, "codegen", max_steps)
    assert isinstance(interp, Interpreter)
    assert isinstance(codegen, ProfiledCodegenExecutor)
    assert got == expected
    return expected


EARLY_RETURN = """
int hits;
func int find(int[] a, int t) {
    for (int i = 0; i < len(a); i = i + 1) {
        for (int j = 0; j < 3; j = j + 1) {
            hits = hits + 1;
            if (a[i] * j == t) { return i; }
        }
    }
    return 0 - 1;
}
func int main() {
    int[] a = new int[5];
    for (int k = 0; k < 5; k = k + 1) { a[k] = k; }
    int s = 0;
    for (int r = 0; r < 4; r = r + 1) { s = s + find(a, r * 2); }
    return s;
}
"""

RECURSION = """
func int walk(int d, int[] acc) {
    int s = 0;
    for (int i = 0; i < 2; i = i + 1) {
        acc[d] = acc[d] + i;
        if (d < 3) { s = s + walk(d + 1, acc); }
    }
    return s + acc[d];
}
func int main() {
    int[] acc = new int[4];
    int total = 0;
    for (int r = 0; r < 2; r = r + 1) { total = total + walk(0, acc); }
    return total;
}
"""


def test_early_return_from_nested_loops_event_parity():
    result, _steps, log = assert_same_events(compile_program(EARLY_RETURN))
    assert result == ("ok", 6)
    # find() returns from inside both of its loops: both exit, innermost
    # first, before control is back in main's loop.
    kinds = [e[0] for e in log if e[0] in ("enter", "exit")]
    assert kinds.count("enter") == kinds.count("exit")
    assert ("exit", "find.L1") in {(e[0], e[1]) for e in log}


def test_recursion_event_and_profile_parity():
    _result, _steps, log = assert_same_events(compile_program(RECURSION))
    # The same loop is active at several depths of the loop stack.
    assert any(
        len([c for c in e[-1][0] if c[0] == "walk.L0"]) > 1 for e in log
    )
    assert profile_parity_check(RECURSION) == []


# -- faults -----------------------------------------------------------------


@pytest.mark.parametrize(
    "source", [p[1] for p in FAULT_PROGRAMS], ids=[p[0] for p in FAULT_PROGRAMS]
)
def test_fault_parity(source):
    result, _steps, _log = assert_same_events(compile_program(source))
    assert result[0] == "fault"
    assert profile_parity_check(source) == []


@pytest.mark.parametrize("budget", [7, 60, 333])
def test_step_limit_parity(budget):
    result, steps, _log = assert_same_events(
        compile_program(EARLY_RETURN), max_steps=budget
    )
    assert result == ("fault", "step limit exceeded")
    assert steps > budget
    assert profile_parity_check(EARLY_RETURN, max_steps=budget) == []


def test_null_dereference_in_callee_parity():
    src = """
    struct Node { int v; Node* next; }
    func int sum(Node* n) {
        int s = 0;
        for (int i = 0; i < 4; i = i + 1) { s = s + n.v; n = n.next; }
        return s;
    }
    func int main() {
        Node* a = new Node;
        Node* b = new Node;
        a.next = b;
        return sum(a);
    }
    """
    result, _steps, _log = assert_same_events(compile_program(src))
    assert result == ("fault", "null dereference reading .v (line 5)")


def test_undefined_register_after_write_event_parity():
    # The loop's store reads a register first written after the loop.
    # The stored value is read after the write event fires, so the fault
    # comes after the observers saw the access, on both backends.
    module = compile_program("""
    int g;
    func void main() {
        for (int i = 0; i < 3; i = i + 1) { g = g + i; }
        int late = 5;
        g = late;
    }
    """)
    main = module.functions["main"]
    body = next(main.blocks[n] for n in main.block_order if "body" in n)
    index = next(
        i for i, ins in enumerate(body.instrs) if type(ins) is StoreGlobal
    )
    body.instrs[index] = StoreGlobal("g", Reg("late"))
    result, _steps, log = assert_same_events(module)
    assert result == ("fault", "read of undefined register %late")
    assert log[-1][0] == "write"


# -- baselines --------------------------------------------------------------


@pytest.mark.parametrize("bench", ALL_BENCHMARKS[:6], ids=lambda b: b.name)
def test_baseline_profile_detection_parity(bench):
    results = []
    for exec_backend in ("interp", "codegen"):
        ctx = build_context(bench.compile(fresh=True), exec_backend=exec_backend)
        assert ctx.costs["profile"]["instructions"] == ctx.profile.steps
        results.append(
            (
                ctx.profile,
                {
                    d.name: {
                        label: (r.parallel, r.reason)
                        for label, r in d.detect(ctx).items()
                    }
                    for d in (DependenceProfilingDetector(), DiscoPopDetector())
                },
            )
        )
    assert results[0] == results[1]
