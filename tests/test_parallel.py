"""Machine model, selection and simulated-executor tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_program
from repro.analysis.loops import build_loop_forest
from repro.api import AnalysisConfig
from repro.core import DcaAnalyzer
from repro.interp import Interpreter, ProfiledCodegenExecutor
from repro.parallel import (
    MachineModel,
    ParallelSimulator,
    dynamic_makespan,
    parallel_invocation_time,
    static_makespan,
)


# -- machine model -----------------------------------------------------------


@given(
    st.lists(st.integers(1, 100), min_size=1, max_size=60),
    st.integers(1, 16),
)
@settings(max_examples=60)
def test_makespan_bounds(costs, workers):
    """Makespan is at least the critical path and at most the serial sum."""
    total = sum(costs)
    for fn in (static_makespan, dynamic_makespan):
        span = fn(costs, workers, task_cost=0)
        assert span >= max(costs)
        assert span <= total
        assert span >= total / workers - 1e-9


@given(st.lists(st.integers(1, 50), min_size=1, max_size=40))
def test_single_worker_is_serial(costs):
    assert static_makespan(costs, 1, 0) == sum(costs)
    assert dynamic_makespan(costs, 1, 0) == sum(costs)


@given(st.lists(st.integers(1, 50), min_size=1, max_size=30))
def test_more_workers_never_hurt_dynamic(costs):
    spans = [dynamic_makespan(costs, w, 0) for w in (1, 2, 4, 8)]
    assert spans == sorted(spans, reverse=True) or all(
        a >= b for a, b in zip(spans, spans[1:])
    )


def test_uniform_costs_split_evenly():
    costs = [10] * 8
    assert static_makespan(costs, 4, 0) == 20
    assert dynamic_makespan(costs, 4, 0) == 20
    assert static_makespan(costs, 8, 0) == 10


def test_task_cost_charged():
    costs = [10] * 4
    assert dynamic_makespan(costs, 4, task_cost=5) == 15


def test_empty_iteration_list():
    assert static_makespan([], 4, 0) == 0
    assert dynamic_makespan([], 4, 0) == 0
    model = MachineModel(cores=4)
    assert parallel_invocation_time([], model) == model.fork_join_cost


def test_reduction_merge_cost_scales_with_vars():
    model = MachineModel(cores=8)
    base = parallel_invocation_time([10] * 8, model, reduction_vars=0)
    with_red = parallel_invocation_time([10] * 8, model, reduction_vars=2)
    assert with_red > base


def test_with_cores_copies_model():
    model = MachineModel(cores=72, task_cost=9)
    small = model.with_cores(4)
    assert small.cores == 4
    assert small.task_cost == 9


# -- simulator -----------------------------------------------------------------


HOT_LOOP = """
func void main() {
  float s = 0.0;
  for (int k = 0; k < 128; k = k + 1) {
    float acc = 0.0;
    for (int j = 0; j < 20; j = j + 1) {
      acc = acc + to_float(k * j % 17) * 0.25;
    }
    s += acc;
  }
  print(s);
}
"""


def test_simulator_parallelizes_hot_outer_loop():
    module = compile_program(HOT_LOOP)
    report = DcaAnalyzer(module, AnalysisConfig(rtol=1e-7)).analyze()
    sim = ParallelSimulator(module, model=MachineModel(cores=72))
    sp = sim.simulate(report.commutative_labels())
    assert sp.selection.chosen == ["main.L0"]
    assert "main.L1" in sp.selection.skipped  # nested
    assert sp.speedup > 10


def test_speedup_monotone_in_cores():
    module = compile_program(HOT_LOOP)
    report = DcaAnalyzer(module, AnalysisConfig(rtol=1e-7)).analyze()
    speedups = []
    for cores in (2, 8, 32):
        sim = ParallelSimulator(module, model=MachineModel(cores=cores))
        speedups.append(sim.simulate(report.commutative_labels()).speedup)
    assert speedups[0] < speedups[1] < speedups[2]


def test_unprofitable_loop_skipped():
    module = compile_program(
        """
        func void main() {
          int[] a = new int[4];
          for (int i = 0; i < 4; i = i + 1) { a[i] = i; }
          print(a[3]);
        }
        """
    )
    sim = ParallelSimulator(module, model=MachineModel(cores=72))
    sp = sim.simulate(["main.L0"], min_coverage=0.0)
    assert sp.selection.chosen == []
    assert sp.speedup == 1.0


def test_serial_fraction_reduces_speedup():
    module = compile_program(HOT_LOOP)
    report = DcaAnalyzer(module, AnalysisConfig(rtol=1e-7)).analyze()
    labels = report.commutative_labels()
    sim = ParallelSimulator(module, model=MachineModel(cores=72))
    free = sim.simulate(labels).speedup
    sim2 = ParallelSimulator(module, model=MachineModel(cores=72))
    constrained = sim2.simulate(
        labels, serial_fractions={"main.L0": 0.5}
    ).speedup
    assert constrained < free
    assert constrained < 2.5  # Amdahl with half the loop serial


def test_expert_extra_fraction_improves():
    module = compile_program(HOT_LOOP)
    sim = ParallelSimulator(module, model=MachineModel(cores=72))
    nothing = sim.simulate([]).speedup
    sim2 = ParallelSimulator(module, model=MachineModel(cores=72))
    restructured = sim2.simulate([], expert_extra_fraction=0.9).speedup
    assert nothing == 1.0
    assert restructured > 2.0


def test_clauses_synthesized_for_reduction():
    module = compile_program(
        """
        func void main() {
          int s = 0;
          for (int i = 0; i < 64; i = i + 1) { s += i * i; }
          print(s);
        }
        """
    )
    sim = ParallelSimulator(module, model=MachineModel(cores=8))
    sp = sim.simulate(["main.L0"], min_coverage=0.0)
    if sp.selection.chosen:
        clauses = sp.loops["main.L0"].clauses
        assert any("s" in r for r in clauses.reductions)
        assert "reduction" in clauses.pragma()


def test_nesting_observer_tracks_call_boundaries():
    module = compile_program(
        """
        func int inner(int n) {
          int s = 0;
          for (int j = 0; j < n; j = j + 1) { s = s + j; }
          return s;
        }
        func void main() {
          int t = 0;
          for (int i = 0; i < 3; i = i + 1) { t = t + inner(4); }
          print(t);
        }
        """
    )
    from repro.interp.interpreter import Interpreter
    from repro.parallel import NestingObserver

    obs = NestingObserver()
    Interpreter(module, observers=[obs]).run()
    # inner.L0 nests dynamically inside main.L0 (through the call).
    assert "main.L0" in obs.ancestors("inner.L0")


CALL_NEST = """
func int inner(int n) {
  int s = 0;
  for (int j = 0; j < n; j = j + 1) {
    if (j == 5) { return s; }
    s = s + j * n;
  }
  return s;
}
func void main() {
  int t = 0;
  for (int i = 0; i < 40; i = i + 1) {
    for (int k = 0; k < i % 7; k = k + 1) { t = t + inner(i + k); }
  }
  print(t);
}
"""


EXECUTORS = {"interp": Interpreter, "codegen": ProfiledCodegenExecutor}


def test_simulator_reports_equal_across_exec_backends(monkeypatch):
    # The cost profile is a loop observer: the backend it runs on is a
    # pure speed lever, never a change in costs, selection or speedup.
    for source in (HOT_LOOP, CALL_NEST):
        module = compile_program(source)
        labels = sorted(
            label
            for func in module.functions.values()
            for label in build_loop_forest(func).loops
        )
        results = {}
        for backend in ("interp", "codegen"):
            monkeypatch.setenv("REPRO_EXEC_BACKEND", backend)
            sim = ParallelSimulator(module, model=MachineModel(cores=72))
            report = sim.simulate(labels, min_coverage=0.0)
            profile = sim.profile(labels)
            assert type(profile.interp) is EXECUTORS[backend]
            results[backend] = (
                report.t_seq,
                report.t_par,
                report.selection.chosen,
                report.selection.skipped,
                report.loops,
                profile.loop_cost,
                {
                    (label, inv): profile.iteration_costs(label, inv)
                    for label in labels
                    for inv in profile.invocations(label)
                },
            )
        assert results["interp"] == results["codegen"]
        assert results["codegen"][2], "no loop was chosen"
