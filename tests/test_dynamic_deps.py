"""Dynamic memory-dependence profiler tests, read through the summary."""

from repro import compile_program
from repro.analysis.dynamic_deps import profile_program


def profile(source):
    return profile_program(compile_program(source), exec_backend="interp")


def test_map_loop_has_no_cross_iteration_edges():
    summary = profile(
        "func void main() { int[] a = new int[8];"
        " for (int i = 0; i < 8; i = i + 1) { a[i] = i; } print(a[0]); }"
    )
    assert not summary.loop("main.L0").carried
    assert "main.L0" in summary.max_trips


def test_recurrence_produces_cross_iteration_raw():
    summary = profile(
        "func void main() { int[] a = new int[8]; a[0] = 1;"
        " for (int i = 1; i < 8; i = i + 1) { a[i] = a[i - 1] + 1; }"
        " print(a[7]); }"
    )
    raw = summary.loop("main.L0").carried.get("raw")
    assert raw
    # Writer and reader both attribute to sites inside main.
    assert all(w[0] == "main" and r[0] == "main" for w, r in raw)


def test_same_iteration_rmw_not_cross():
    summary = profile(
        "func void main() { int[] a = new int[8];"
        " for (int i = 0; i < 8; i = i + 1) { a[i] = a[i] + 1; }"
        " print(a[0]); }"
    )
    assert "raw" not in summary.loop("main.L0").carried


def test_histogram_has_cross_iteration_raw():
    summary = profile(
        "func void main() { int[] h = new int[2];"
        " for (int i = 0; i < 8; i = i + 1) { h[i % 2] += 1; }"
        " print(h[0]); }"
    )
    assert summary.loop("main.L0").carried.get("raw")


def test_callee_accesses_attributed_to_call_site():
    summary = profile(
        """
        struct Cell { int v; }
        func void bump(Cell* c) { c->v = c->v + 1; }
        func void main() {
          Cell* c = new Cell;
          for (int i = 0; i < 4; i = i + 1) { bump(c); }
          print(c->v);
        }
        """
    )
    raw = summary.loop("main.L0").carried.get("raw")
    assert raw
    # Attribution lifts the access out of bump() to the call inside main.
    assert all(w[0] == "main" for w, _r in raw)


def test_privatizable_location():
    summary = profile(
        "func void main() { int[] tmp = new int[1]; int s = 0;"
        " for (int i = 0; i < 6; i = i + 1) { tmp[0] = i * 2; s = s + tmp[0]; }"
        " print(s); }"
    )
    carried = summary.loop("main.L0").carried
    # tmp[0] causes cross-iteration WAW/WAR but is written-before-read in
    # every iteration: privatizable.
    cross = [
        private
        for kind in ("waw", "war")
        for private in carried.get(kind, {}).values()
    ]
    assert cross
    assert all(cross)


def test_read_before_write_is_not_privatizable():
    summary = profile(
        "func void main() { int[] cell = new int[1]; cell[0] = 1; int s = 0;"
        " for (int i = 0; i < 6; i = i + 1) { s = s + cell[0]; cell[0] = i; }"
        " print(s); }"
    )
    raw = summary.loop("main.L0").carried.get("raw")
    assert raw
    assert not raw[min(raw)]


def test_edges_scoped_to_invocation():
    # Writes from a previous invocation of the loop do not create edges.
    summary = profile(
        """
        func void main() {
          int[] a = new int[4];
          for (int r = 0; r < 2; r = r + 1) {
            for (int i = 0; i < 4; i = i + 1) { a[i] = a[i] + r; }
          }
          print(a[0]);
        }
        """
    )
    assert "raw" not in summary.loop("main.L1").carried
    # The outer loop *does* carry the dependence across its iterations.
    assert summary.loop("main.L0").carried.get("raw")


def test_memory_flow_pairs_kept_per_label():
    summary = profile(
        "func void main() { int[] a = new int[4]; a[0] = 1;"
        " for (int i = 1; i < 4; i = i + 1) { a[i] = a[i - 1]; }"
        " print(a[3]); }"
    )
    flows = summary.loop("main.L0").memory_flow
    assert flows
    assert all(len(pair) == 2 for pair in flows)
