"""Baseline detector envelope tests (the Table I/III discriminators)."""

import glob
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro import compile_program
from repro.baselines import (
    ALL_DETECTORS,
    DependenceProfilingDetector,
    DiscoPopDetector,
    IccDetector,
    IdiomsDetector,
    PollyDetector,
    build_context,
    combine_static,
)

ZOO = """
struct Node { int val; Node* next; }
func float fhelper(float x) { return x * 2.0 + 1.0; }
func void main() {
  int[] a = new int[32];
  int[] b = new int[32];
  int[] hist = new int[8];
  for (int i = 0; i < 32; i = i + 1) { a[i] = i * 3; }              // L0 map
  int s = 0;
  for (int i = 0; i < 32; i = i + 1) { s += a[i]; }                 // L1 reduce
  for (int i = 0; i < 32; i = i + 1) { hist[a[i] % 8] += 1; }       // L2 hist
  for (int i = 1; i < 32; i = i + 1) { b[i] = b[i - 1] + a[i]; }    // L3 rec
  Node* head = null;
  for (int k = 0; k < 8; k = k + 1) {
    Node* n = new Node; n->val = k; n->next = head; head = n;       // L4
  }
  Node* p = head;
  int t = 0;
  while (p) { t += p->val; p = p->next; }                           // L5 PLDS
  float[] f = new float[16];
  for (int i = 0; i < 16; i = i + 1) { f[i] = fhelper(to_float(i)); } // L6
  int m = -1000;
  for (int i = 0; i < 32; i = i + 1) { if (a[i] > m) { m = a[i]; } }  // L7
  print(s, t, m, hist[0], f[3], b[31]);
}
"""

EXPECTED = {
    "dep-profiling": {"main.L0", "main.L1", "main.L6"},
    "discopop": {"main.L0", "main.L1", "main.L2", "main.L6", "main.L7"},
    "idioms": {"main.L1", "main.L2", "main.L7"},
    "polly": {"main.L0"},
    "icc": {"main.L0", "main.L1", "main.L6"},
}


@pytest.fixture(scope="module")
def zoo_ctx():
    return build_context(compile_program(ZOO))


@pytest.mark.parametrize(
    "detector_cls",
    [
        DependenceProfilingDetector,
        DiscoPopDetector,
        IdiomsDetector,
        PollyDetector,
        IccDetector,
    ],
)
def test_detector_envelope_on_zoo(zoo_ctx, detector_cls):
    det = detector_cls()
    found = {l for l, r in det.detect(zoo_ctx).items() if r.parallel}
    assert found == EXPECTED[det.name], det.name


def test_nobody_detects_recurrence_or_plds(zoo_ctx):
    for cls in (
        DependenceProfilingDetector,
        DiscoPopDetector,
        IdiomsDetector,
        PollyDetector,
        IccDetector,
    ):
        found = {l for l, r in cls().detect(zoo_ctx).items() if r.parallel}
        assert "main.L3" not in found  # recurrence
        assert "main.L5" not in found  # pointer chase


def test_combined_static_is_union(zoo_ctx):
    per_tool = [
        cls().detect(zoo_ctx) for cls in (IdiomsDetector, PollyDetector, IccDetector)
    ]
    combined = combine_static(per_tool)
    union = set()
    for results in per_tool:
        union |= {l for l, r in results.items() if r.parallel}
    assert {l for l, r in combined.items() if r.parallel} == union


def test_every_verdict_has_a_reason(zoo_ctx):
    for cls in (DependenceProfilingDetector, PollyDetector):
        for result in cls().detect(zoo_ctx).values():
            assert result.reason


def test_detectors_reject_unexecuted_loops():
    ctx = build_context(
        compile_program(
            """
            int N = 0;
            func void main() {
              if (N > 0) {
                for (int i = 0; i < N; i = i + 1) { }
              }
            }
            """
        )
    )
    for cls in (DependenceProfilingDetector, DiscoPopDetector):
        result = cls().detect(ctx)["main.L0"]
        assert not result.parallel
        assert "not exercised" in result.reason


def test_dynamic_detectors_reject_io_loops():
    ctx = build_context(
        compile_program(
            "func void main() { for (int i = 0; i < 3; i = i + 1) { print(i); } }"
        )
    )
    for cls in (DependenceProfilingDetector, DiscoPopDetector):
        result = cls().detect(ctx)["main.L0"]
        assert not result.parallel


def test_conditional_cursor_rejected_by_dynamics():
    # A conditionally bumped cursor is not a substitutable induction.
    ctx = build_context(
        compile_program(
            """
            func void main() {
              int[] out = new int[16];
              int cur = 0;
              for (int i = 0; i < 16; i = i + 1) {
                if (i % 3 == 0) { out[cur] = i; cur = cur + 1; }
              }
              print(out[0], cur);
            }
            """
        )
    )
    for cls in (DependenceProfilingDetector, DiscoPopDetector):
        assert not cls().detect(ctx)["main.L0"].parallel


def test_icc_handles_pure_calls_polly_does_not():
    ctx = build_context(
        compile_program(
            """
            func int sq(int x) { return x * x; }
            func void main() {
              int[] a = new int[8];
              for (int i = 0; i < 8; i = i + 1) { a[i] = sq(i); }
              print(a[7]);
            }
            """
        )
    )
    assert IccDetector().detect(ctx)["main.L0"].parallel
    assert not PollyDetector().detect(ctx)["main.L0"].parallel


def test_statics_reject_indirect_subscripts():
    ctx = build_context(
        compile_program(
            """
            func void main() {
              int[] idx = new int[8];
              int[] a = new int[8];
              for (int i = 0; i < 8; i = i + 1) { idx[i] = (i * 3) % 8; }
              for (int i = 0; i < 8; i = i + 1) { a[idx[i]] = i; }
              print(a[0]);
            }
            """
        )
    )
    for cls in (PollyDetector, IccDetector):
        assert not cls().detect(ctx)["main.L1"].parallel
    # But the dynamics see the writes are disjoint.
    assert DependenceProfilingDetector().detect(ctx)["main.L1"].parallel


#: Prints every detector's (verdict, reason) per loop for three suite
#: programs whose first blocker used to follow hash order: BFS (the
#: loop's block set), FT (its carried scalars) and IS (its dependence
#: edges).
_REASONS_SCRIPT = textwrap.dedent(
    """
    import json

    from repro.baselines import (
        DependenceProfilingDetector, DiscoPopDetector, IccDetector,
        IdiomsDetector, PollyDetector, build_context,
    )
    from repro.benchsuite import by_name

    reasons = {}
    for name in ("BFS", "FT", "IS"):
        bench = by_name(name)
        ctx = build_context(bench.compile(fresh=True), entry=bench.entry)
        for detector in (
            DependenceProfilingDetector(), DiscoPopDetector(),
            IdiomsDetector(), PollyDetector(), IccDetector(),
        ):
            for label, res in detector.detect(ctx).items():
                key = f"{name}:{detector.name}:{label}"
                reasons[key] = [res.parallel, res.reason]
    print(json.dumps(reasons, sort_keys=True))
    """
)


def test_reasons_do_not_depend_on_string_hashing():
    src = os.path.join(os.path.dirname(__file__), "..", "src")

    def reasons(seed):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", _REASONS_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr[-4000:]
        return json.loads(result.stdout)

    assert reasons(1) == reasons(2)


#: L0 reads a[i + 1] before iteration i + 1 overwrites it: a carried
#: anti dependence on a location read first, so not privatizable.  L1's
#: scratch slot carries anti and output dependences but is written first
#: in every iteration.
ANTI = """
func void main() {
  int[] a = new int[9];
  int[] b = new int[8];
  int[] tmp = new int[1];
  for (int i = 0; i < 8; i = i + 1) { b[i] = a[i + 1]; a[i] = i; }
  for (int i = 0; i < 8; i = i + 1) { tmp[0] = i * 2; b[i] = tmp[0] + 1; }
  print(b[3]);
}
"""


def test_profile_detectors_block_only_non_privatizable_anti_deps():
    ctx = build_context(compile_program(ANTI))
    for detector in (DependenceProfilingDetector(), DiscoPopDetector()):
        results = detector.detect(ctx)
        assert (results["main.L0"].parallel, results["main.L0"].reason) == (
            False, "cross-iteration war on non-privatizable location"
        )
        assert results["main.L1"].parallel, results["main.L1"].reason


# -- verdict golden ------------------------------------------------------------


#: Every detector's ``[parallel, reason]`` per loop of the 24 suite
#: programs, ``examples/*.mc`` and the fuzz corpus, frozen from detectors
#: that read the profiler's location-level edges.  The summary keeps one
#: privatization flag per carried ``(kind, writer, reader)``; no verdict
#: or reason may move.
BASELINE_GOLDEN = os.path.join(
    os.path.dirname(__file__), "goldens", "baseline_verdicts.json"
)
_ROOT = os.path.join(os.path.dirname(__file__), "..")


def _golden_programs():
    """``(key, source, entry)`` of every program the golden covers."""
    from repro.benchsuite import ALL_BENCHMARKS

    for bench in ALL_BENCHMARKS:
        yield f"bench/{bench.name}", bench.source, bench.entry
    for pattern, prefix in (
        ("examples/*.mc", "examples/"),
        ("tests/fuzz/corpus/*.mc", "corpus/"),
    ):
        for path in sorted(glob.glob(os.path.join(_ROOT, pattern))):
            with open(path) as fh:
                yield prefix + os.path.basename(path), fh.read(), "main"


@pytest.mark.parametrize("exec_backend", ["codegen", "interp"])
def test_baseline_verdicts_match_the_golden(exec_backend):
    with open(BASELINE_GOLDEN) as fh:
        expected = json.load(fh)
    got = {}
    for key, source, entry in _golden_programs():
        ctx = build_context(
            compile_program(source), entry=entry, exec_backend=exec_backend
        )
        got[key] = {
            detector.name: {
                label: [res.parallel, res.reason]
                for label, res in detector().detect(ctx).items()
            }
            for detector in ALL_DETECTORS
        }
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key
