"""Instrumentation passes and DCA runtime unit tests."""

import hashlib
import pickle

import pytest

from repro import compile_program, run_program
from repro.analysis.purity import EffectAnalysis
from repro.core.instrument import (
    RT_RECORD,
    RT_VERIFY,
    VerifySpec,
    build_observe_module,
    build_test_module,
    compute_verify_spec,
)
from repro.core.liveout import Snapshot, snapshot_digest
from repro.core.runtime import CommutativityMismatch, DcaRuntime
from repro.core.schedules import IdentitySchedule, ReverseSchedule
from repro.interp.interpreter import Interpreter
from repro.ir.instructions import Intrinsic, Reg
from repro.ir.verify import verify_module

SOURCE = """
func void main() {
  int[] a = new int[6];
  int s = 0;
  for (int i = 0; i < 6; i = i + 1) { a[i] = i * 2; }
  for (int i = 0; i < 6; i = i + 1) { s = s + a[i]; }
  print(s);
}
"""


def specs_for(module, labels=("main.L0", "main.L1")):
    effects = EffectAnalysis(module)
    return {
        label: compute_verify_spec(module, module.functions["main"], label, effects)
        for label in labels
    }


def test_verify_spec_contents():
    module = compile_program(SOURCE)
    specs = specs_for(module)
    spec1 = specs["main.L1"]
    assert Reg("s") in spec1.scalar_regs
    # `a` is live after L0 (read by L1) — heap snapshot root.
    assert Reg("a") in specs["main.L0"].ref_regs


def test_verify_spec_includes_written_scalar_globals():
    module = compile_program(
        """
        int total = 0;
        func void main() {
          for (int i = 0; i < 4; i = i + 1) { total = total + i; }
          print(total);
        }
        """
    )
    effects = EffectAnalysis(module)
    spec = compute_verify_spec(module, module.functions["main"], "main.L0", effects)
    assert spec.scalar_globals == ["total"]


def test_observe_module_inserts_verify_per_loop():
    module = compile_program(SOURCE)
    specs = specs_for(module)
    observed = build_observe_module(module, specs)
    verify_module(observed)
    intrinsics = [
        i
        for i in observed.functions["main"].instructions()
        if isinstance(i, Intrinsic) and i.func == RT_VERIFY
    ]
    assert len(intrinsics) == 2
    # The pristine module is untouched.
    assert not [
        i for i in module.functions["main"].instructions() if isinstance(i, Intrinsic)
    ]


def test_observe_run_collects_golden_snapshots():
    module = compile_program(SOURCE)
    specs = specs_for(module)
    observed = build_observe_module(module, specs)
    runtime = DcaRuntime(specs)
    Interpreter(observed, runtime=runtime).run()
    assert runtime.invocation_count("main.L0") == 1
    assert runtime.invocation_count("main.L1") == 1
    assert len(runtime.snapshots["main.L0"]) == 1


def test_test_module_structure():
    module = compile_program(SOURCE)
    specs = specs_for(module)
    inst = build_test_module(module, "main.L0", specs["main.L0"])
    verify_module(inst.module)
    main = inst.module.functions["main"]
    names = set(main.blocks)
    assert any(n.endswith("$rec") for n in names)
    assert any(".d0.permute" in n for n in names)
    records = [
        i
        for i in main.instructions()
        if isinstance(i, Intrinsic) and i.func == RT_RECORD
    ]
    assert len(records) == 1
    assert inst.outline.payload_func in inst.module.functions


def test_identity_replay_matches_golden():
    module = compile_program(SOURCE)
    specs = specs_for(module)
    observed = build_observe_module(module, specs)
    golden_rt = DcaRuntime(specs)
    Interpreter(observed, runtime=golden_rt).run()

    inst = build_test_module(module, "main.L0", specs["main.L0"])
    test_rt = DcaRuntime(
        specs={"main.L0": specs["main.L0"]},
        schedule=IdentitySchedule(),
        golden=golden_rt.snapshots,
    )
    interp = Interpreter(inst.module, runtime=test_rt)
    interp.run()
    assert not test_rt.violations
    assert test_rt.max_trip_count("main.L0") == 6
    assert interp.output_text() == "30\n"


def test_reverse_replay_of_map_also_matches():
    module = compile_program(SOURCE)
    specs = specs_for(module)
    observed = build_observe_module(module, specs)
    golden_rt = DcaRuntime(specs)
    Interpreter(observed, runtime=golden_rt).run()

    inst = build_test_module(module, "main.L0", specs["main.L0"])
    test_rt = DcaRuntime(
        specs={"main.L0": specs["main.L0"]},
        schedule=ReverseSchedule(),
        golden=golden_rt.snapshots,
    )
    Interpreter(inst.module, runtime=test_rt).run()
    assert not test_rt.violations


def test_mismatch_raises_fail_fast():
    source = """
    func void main() {
      int[] out = new int[5];
      int run = 0;
      for (int i = 0; i < 5; i = i + 1) { run = run + 2; out[i] = run * (i + 1); }
      print(out[0], out[4]);
    }
    """
    module = compile_program(source)
    specs = specs_for(module, labels=("main.L0",))
    observed = build_observe_module(module, specs)
    golden_rt = DcaRuntime(specs)
    Interpreter(observed, runtime=golden_rt).run()

    inst = build_test_module(module, "main.L0", specs["main.L0"])
    test_rt = DcaRuntime(
        specs=specs,
        schedule=ReverseSchedule(),
        golden=golden_rt.snapshots,
        fail_fast=True,
    )
    with pytest.raises(CommutativityMismatch):
        Interpreter(inst.module, runtime=test_rt).run()
    assert test_rt.violations


def test_runtime_rejects_unknown_intrinsic():
    # Codegen refuses to lower an unknown intrinsic, so the interpreter
    # fallback raises the same fault under both backends.
    from repro.interp.compiler import create_executor
    from repro.interp.values import MiniCRuntimeError
    from repro.ir.instructions import Const

    module = compile_program(SOURCE)
    entry = module.functions["main"].blocks[module.functions["main"].entry]
    entry.instrs.insert(0, Intrinsic(None, "rt_bogus", [Const("x")]))
    messages = []
    for backend in ("interp", "codegen"):
        executor = create_executor(
            module, runtime=DcaRuntime(specs={}), exec_backend=backend
        )
        with pytest.raises(MiniCRuntimeError) as exc:
            executor.run()
        messages.append(str(exc.value))
    assert messages == ["unknown DCA intrinsic 'rt_bogus'"] * 2


def test_capture_disabled_still_counts_invocations():
    module = compile_program(SOURCE)
    specs = specs_for(module)
    observed = build_observe_module(module, specs)
    runtime = DcaRuntime(specs, capture=())
    Interpreter(observed, runtime=runtime).run()
    assert runtime.invocation_count("main.L0") == 1
    assert "main.L0" not in runtime.snapshots
    assert runtime.digests == {}
    assert runtime.snapshot_content_digest() == ""


def test_permutation_cache_shared_across_invocations():
    from repro.core.schedules import RandomSchedule

    rt = DcaRuntime(specs={}, schedule=RandomSchedule(seed=7))
    for _ in range(2):
        for i in range(5):
            rt.rt_iterator_record(None, "main.L0", i)
        rt.rt_iterator_permute(None, "main.L0")
    first, second = rt._active["main.L0"]
    assert first.order is second.order  # one Fisher-Yates per (name, n)
    assert sorted(first.order) == list(range(5))
    # A different trip count gets its own permutation.
    for i in range(3):
        rt.rt_iterator_record(None, "main.L0", i)
    rt.rt_iterator_permute(None, "main.L0")
    assert sorted(rt._active["main.L0"][-1].order) == list(range(3))


NESTED = """
func void main() {
  int[] a = new int[4];
  for (int r = 0; r < 3; r = r + 1) {
    for (int i = 0; i < 4; i = i + 1) { a[i] = a[i] + i * r; }
  }
  print(a[3]);
}
"""


def golden_and_test_module(source, label):
    module = compile_program(source)
    specs = specs_for(module, labels=(label,))
    golden_rt = DcaRuntime(specs)
    Interpreter(build_observe_module(module, specs), runtime=golden_rt).run()
    return golden_rt, build_test_module(module, label, specs[label]), specs


def held_snapshots(value, seen=None):
    """Snapshots reachable from ``value`` through containers and objects."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return 0
    seen.add(id(value))
    if isinstance(value, Snapshot):
        return 1
    if isinstance(value, dict):
        items = list(value.keys()) + list(value.values())
    elif isinstance(value, (list, tuple, set)):
        items = list(value)
    elif hasattr(value, "__dict__"):
        items = list(vars(value).values())
    else:
        return 0
    return sum(held_snapshots(v, seen) for v in items)


def test_replay_keeps_one_digest_per_invocation_and_no_snapshot():
    golden_rt, inst, specs = golden_and_test_module(NESTED, "main.L1")
    assert golden_rt.invocation_count("main.L1") == 3
    assert len(golden_rt.snapshots["main.L1"]) == 3  # the reference stays
    test_rt = DcaRuntime(
        specs=specs, schedule=ReverseSchedule(), golden=golden_rt.snapshots
    )
    Interpreter(inst.module, runtime=test_rt).run()
    assert not test_rt.violations
    assert test_rt.snapshots == {}
    own = {k: v for k, v in vars(test_rt).items() if k != "golden"}
    assert held_snapshots(own) == 0
    assert len(test_rt.digests["main.L1"]) == test_rt.invocation_count("main.L1")
    assert test_rt.digests == golden_rt.digests
    assert test_rt.snapshots_taken == 3 and test_rt.verify_comparisons == 3


def test_content_digest_folds_the_golden_runs_digests():
    module = compile_program(SOURCE)
    specs = specs_for(module)
    golden_rt = DcaRuntime(specs)
    Interpreter(build_observe_module(module, specs), runtime=golden_rt).run()
    h = hashlib.sha256()
    for label in sorted(golden_rt.snapshots):
        h.update(label.encode("utf-8"))
        for snap in golden_rt.snapshots[label]:
            h.update(snapshot_digest(snap).encode("ascii"))
    assert golden_rt.snapshot_content_digest() == h.hexdigest()
    assert golden_rt.digests == {
        label: [snapshot_digest(s) for s in snaps]
        for label, snaps in golden_rt.snapshots.items()
    }


FLOAT_SUM = """
func void main() {
  float s = 0.0;
  for (int i = 0; i < 3; i = i + 1) { s = s + to_float(i + 1) / 10.0; }
  print(s);
}
"""


def test_float_roundoff_passes_on_rtol_after_digests_differ():
    # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit.
    golden_rt, inst, specs = golden_and_test_module(FLOAT_SUM, "main.L0")
    test_rt = DcaRuntime(
        specs=specs, schedule=ReverseSchedule(), golden=golden_rt.snapshots
    )
    Interpreter(inst.module, runtime=test_rt).run()
    assert test_rt.digests["main.L0"] != golden_rt.digests["main.L0"]
    assert not test_rt.violations
    assert test_rt.verify_comparisons == 1 and test_rt.mismatches == 0
    assert test_rt.first_mismatch_report() is None


def test_mismatch_report_has_digests_and_object_counts():
    source = """
    func void main() {
      int[] out = new int[5];
      int run = 0;
      for (int i = 0; i < 5; i = i + 1) { run = run + 2; out[i] = run * (i + 1); }
      print(out[0], out[4]);
    }
    """
    golden_rt, inst, specs = golden_and_test_module(source, "main.L0")
    test_rt = DcaRuntime(
        specs=specs, schedule=ReverseSchedule(), golden=golden_rt.snapshots
    )
    with pytest.raises(CommutativityMismatch):
        Interpreter(inst.module, runtime=test_rt).run()
    expected = golden_rt.snapshots["main.L0"][0]
    assert test_rt.first_mismatch_report() == {
        "loop": "main.L0",
        "invocation": 0,
        "kind": "liveout-divergence",
        "expected_digest": snapshot_digest(expected),
        "actual_digest": test_rt.digests["main.L0"][0],
        "expected_objects": expected.size(),
        "actual_objects": 1,  # the `out` array
    }
    assert expected.size() == 1
    assert test_rt.mismatches == 1 and test_rt.snapshots == {}


def test_golden_digest_memo_survives_pickling(monkeypatch):
    """Worker replays get their golden snapshots by pickle; the digest
    memo must come along, so the digest-first compare re-hashes only the
    replay's own capture, never the reference."""
    golden_rt, inst, specs = golden_and_test_module(NESTED, "main.L1")
    shipped = pickle.loads(pickle.dumps(golden_rt.snapshots))
    for ours, theirs in zip(golden_rt.snapshots["main.L1"], shipped["main.L1"]):
        assert theirs is not ours
        assert theirs.__dict__["_digest"] == snapshot_digest(ours)

    hashes = []
    real_sha256 = hashlib.sha256
    monkeypatch.setattr(
        hashlib, "sha256", lambda *a: hashes.append(1) or real_sha256(*a)
    )
    test_rt = DcaRuntime(specs=specs, schedule=ReverseSchedule(), golden=shipped)
    Interpreter(inst.module, runtime=test_rt).run()
    assert not test_rt.violations
    assert len(hashes) == test_rt.invocation_count("main.L1") == 3
