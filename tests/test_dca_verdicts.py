"""End-to-end DCA verdicts on a catalogue of loop patterns.

Each case is a small program with one loop of interest and the verdict
the analysis must produce — the behavioural contract of the whole
static + dynamic pipeline.
"""

import pytest

from repro import compile_program
from repro.api import AnalysisConfig
from repro.core import (
    COMMUTATIVE,
    COMMUTATIVE_VACUOUS,
    EXCLUDED_IO,
    ITERATOR_ONLY,
    NON_COMMUTATIVE,
    NOT_EXERCISED,
    DcaAnalyzer,
    ScheduleConfig,
)


def verdict_of(source, label="main.L0", **kwargs):
    module = compile_program(source)
    report = DcaAnalyzer(module, AnalysisConfig(**kwargs)).analyze()
    return report.loop(label)


def test_array_map_commutative():
    result = verdict_of(
        """
        func void main() {
          int[] a = new int[10];
          for (int i = 0; i < 10; i = i + 1) { a[i] = a[i] + 1; }
          print(a[5]);
        }
        """
    )
    assert result.verdict == COMMUTATIVE


def test_plds_map_commutative():
    # Paper Fig. 1(b): the motivating pointer-chasing loop.
    result = verdict_of(
        """
        struct Node { int val; Node* next; }
        func void main() {
          Node* head = null;
          for (int k = 0; k < 6; k = k + 1) {
            Node* n = new Node; n->val = k; n->next = head; head = n;
          }
          Node* ptr = head;
          while (ptr) { ptr->val = ptr->val + 1; ptr = ptr->next; }
          int s = 0;
          ptr = head;
          while (ptr) { s = s + ptr->val; ptr = ptr->next; }
          print(s);
        }
        """,
        label="main.L1",
    )
    assert result.verdict == COMMUTATIVE


def test_scalar_reduction_commutative():
    result = verdict_of(
        """
        func void main() {
          int s = 0;
          for (int i = 0; i < 10; i = i + 1) { s += i * i; }
          print(s);
        }
        """
    )
    assert result.verdict == COMMUTATIVE


def test_float_reduction_needs_tolerance():
    source = """
    func void main() {
      float s = 0.0;
      for (int i = 0; i < 20; i = i + 1) { s = s + 1.0 / to_float(i + 1); }
      print(s);
    }
    """
    tolerant = verdict_of(source, rtol=1e-6)
    assert tolerant.verdict == COMMUTATIVE


def test_prefix_sum_non_commutative():
    result = verdict_of(
        """
        func void main() {
          int[] pre = new int[8];
          int acc = 0;
          for (int i = 0; i < 8; i = i + 1) { acc = acc + i; pre[i] = acc; }
          int s = 0;
          for (int i = 0; i < 8; i = i + 1) { s = s + pre[i] * (i + 1); }
          print(s);
        }
        """
    )
    assert result.verdict == NON_COMMUTATIVE


def test_ordered_list_build_non_commutative():
    result = verdict_of(
        """
        struct Node { int val; Node* next; }
        func void main() {
          Node* head = null;
          for (int k = 0; k < 6; k = k + 1) {
            Node* n = new Node; n->val = k; n->next = head; head = n;
          }
          print(head->val);
        }
        """
    )
    assert result.verdict == NON_COMMUTATIVE


def test_histogram_commutative():
    result = verdict_of(
        """
        func void main() {
          int[] h = new int[4];
          for (int i = 0; i < 20; i = i + 1) { h[i % 4] += 1; }
          print(h[0], h[3]);
        }
        """
    )
    assert result.verdict == COMMUTATIVE


def test_io_loop_excluded():
    result = verdict_of(
        """
        func void main() {
          for (int i = 0; i < 3; i = i + 1) { print(i); }
        }
        """
    )
    assert result.verdict == EXCLUDED_IO


def test_io_via_callee_excluded():
    result = verdict_of(
        """
        func void show(int x) { print(x); }
        func void main() {
          for (int i = 0; i < 3; i = i + 1) { show(i); }
        }
        """
    )
    assert result.verdict == EXCLUDED_IO


def test_not_exercised_loop():
    # The loop must never be *reached*; a zero-trip loop that is reached
    # still verifies (and is vacuously commutative).
    result = verdict_of(
        """
        int N = 0;
        func void main() {
          int s = 0;
          if (N > 0) {
            for (int i = 0; i < N; i = i + 1) { s = s + i; }
          }
          print(s);
        }
        """
    )
    assert result.verdict == NOT_EXERCISED


def test_zero_trip_reached_loop_is_vacuous():
    result = verdict_of(
        """
        int N = 0;
        func void main() {
          int s = 0;
          for (int i = 0; i < N; i = i + 1) { s = s + i; }
          print(s);
        }
        """
    )
    assert result.verdict == COMMUTATIVE_VACUOUS


def test_single_iteration_is_vacuous():
    result = verdict_of(
        """
        func void main() {
          int s = 0;
          for (int i = 0; i < 1; i = i + 1) { s = s + 5; }
          print(s);
        }
        """
    )
    assert result.verdict == COMMUTATIVE_VACUOUS


def test_pure_traversal_is_iterator_only():
    result = verdict_of(
        """
        struct Node { Node* next; }
        func void main() {
          Node* head = null;
          for (int k = 0; k < 4; k = k + 1) {
            Node* n = new Node; n->next = head; head = n;
          }
          Node* p = head;
          while (p) { p = p->next; }
          print(p == null);
        }
        """,
        label="main.L1",
    )
    assert result.verdict == ITERATOR_ONLY


def test_transient_scratch_is_relaxed():
    # The scratch array is written in an order-dependent way but is dead
    # after the loop: liveness-based commutativity ignores it (§II-C).
    result = verdict_of(
        """
        func void main() {
          int[] scratch = new int[8];
          int s = 0;
          int cur = 0;
          for (int i = 0; i < 8; i = i + 1) {
            scratch[cur] = i;
            cur = (cur + 3) % 8;
            s += i;
          }
          print(s);
        }
        """
    )
    assert result.verdict == COMMUTATIVE


def test_order_sensitive_scratch_that_is_live_fails():
    # Same loop, but the scratch array is consumed afterwards.
    result = verdict_of(
        """
        func void main() {
          int[] scratch = new int[8];
          int s = 0;
          int cur = 0;
          for (int i = 0; i < 8; i = i + 1) {
            scratch[cur] = i;
            cur = (cur + 3) % 8;
            s += i;
          }
          print(s, scratch[1]);
        }
        """
    )
    assert result.verdict == NON_COMMUTATIVE


def test_argmax_with_unique_values_commutative():
    result = verdict_of(
        """
        func void main() {
          int[] a = new int[12];
          for (int i = 0; i < 12; i = i + 1) { a[i] = (i * 7) % 12; }
          int best = 0 - 1;
          int where = 0 - 1;
          for (int i = 0; i < 12; i = i + 1) {
            if (a[i] > best) { best = a[i]; where = i; }
          }
          print(best, where);
        }
        """,
        label="main.L1",
    )
    assert result.verdict == COMMUTATIVE


def test_argmax_with_ties_non_commutative():
    # First-wins tie-breaking is order-sensitive.
    result = verdict_of(
        """
        func void main() {
          int[] a = new int[8];
          for (int i = 0; i < 8; i = i + 1) { a[i] = i % 2; }
          int best = 0 - 1;
          int where = 0 - 1;
          for (int i = 0; i < 8; i = i + 1) {
            if (a[i] > best) { best = a[i]; where = i; }
          }
          print(best, where);
        }
        """,
        label="main.L1",
    )
    assert result.verdict == NON_COMMUTATIVE


def test_eventual_policy_relaxes_downstream_insensitive_loops():
    # pre[] differs under permutation, but the program only prints the
    # permutation-invariant total: the eventual policy accepts it.
    source = """
    func void main() {
      int[] pre = new int[8];
      int acc = 0;
      for (int i = 0; i < 8; i = i + 1) { acc = acc + i; pre[i] = acc; }
      int s = 0;
      for (int i = 0; i < 8; i = i + 1) { s = s + pre[i]; }
      print(s);
    }
    """
    strict = verdict_of(source)
    relaxed = verdict_of(source, liveout_policy="eventual")
    assert strict.verdict == NON_COMMUTATIVE
    assert relaxed.verdict == NON_COMMUTATIVE  # sum of prefix sums IS order-sensitive

    source2 = source.replace("s = s + pre[i];", "s = s + pre[i] * 0;")
    relaxed2 = verdict_of(source2, liveout_policy="eventual")
    assert relaxed2.verdict == COMMUTATIVE


def test_runtime_fault_under_permutation():
    # Reversed execution divides by zero (a[i] consumed before written).
    result = verdict_of(
        """
        func void main() {
          int[] a = new int[6];
          a[0] = 1;
          int s = 0;
          for (int i = 1; i < 6; i = i + 1) {
            a[i] = a[i - 1] + 1;
            s = s + 100 / a[i - 1];
          }
          print(s, a[5]);
        }
        """
    )
    assert result.verdict in (NON_COMMUTATIVE, "runtime-fault")


def test_loops_in_called_functions_are_analyzed():
    module = compile_program(
        """
        func int total(int[] a) {
          int s = 0;
          for (int i = 0; i < len(a); i = i + 1) { s = s + a[i]; }
          return s;
        }
        func void main() {
          int[] a = new int[6];
          for (int i = 0; i < 6; i = i + 1) { a[i] = i; }
          print(total(a));
        }
        """
    )
    report = DcaAnalyzer(module).analyze()
    assert report.loop("total.L0").verdict == COMMUTATIVE
    assert report.loop("main.L0").verdict == COMMUTATIVE


def test_multi_invocation_loop():
    # The inner loop runs once per outer iteration; all invocations must
    # verify against their own golden snapshots.
    module = compile_program(
        """
        func void main() {
          int[] a = new int[6];
          int s = 0;
          for (int r = 0; r < 3; r = r + 1) {
            for (int i = 0; i < 6; i = i + 1) { a[i] = a[i] + r; }
          }
          for (int i = 0; i < 6; i = i + 1) { s = s + a[i]; }
          print(s);
        }
        """
    )
    report = DcaAnalyzer(module).analyze()
    inner = report.loop("main.L1")
    assert inner.verdict == COMMUTATIVE
    assert inner.invocations == 3


def test_report_helpers():
    module = compile_program(
        """
        func void main() {
          int s = 0;
          for (int i = 0; i < 4; i = i + 1) { s += i; }
          print(s);
        }
        """
    )
    report = DcaAnalyzer(module).analyze()
    assert report.commutative_labels() == ["main.L0"]
    assert report.verdict_counts() == {COMMUTATIVE: 1}
    assert "main.L0" in report.summary()
    # The static pre-screen proves the reduction, so only the profile and
    # golden runs execute; without it the dynamic stage adds schedule runs.
    assert report.loop("main.L0").decided_by == "static"
    assert report.executions == 2
    dynamic = DcaAnalyzer(
        module, AnalysisConfig(static_filter=False)
    ).analyze()
    assert dynamic.loop("main.L0").decided_by == "dynamic"
    assert dynamic.executions >= 3  # profile + golden + identity(+)
    assert dynamic.schedule_executions > 0
