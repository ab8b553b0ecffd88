"""Ablation — live-out verification scope (DESIGN.md §5, items 2 & 3).

Compares the two verification policies on loops whose order sensitivity
lives in different places:

* ``map``              — order-free everywhere: both policies accept;
* ``transient-order``  — scratch memory written order-dependently but
  dead after the loop: *strict already relaxes it* via liveness;
* ``worklist-order``   — a linked worklist whose node order is live after
  the loop but washes out of the eventual program result: only the
  ``eventual`` policy accepts (the paper's BFS top-down-step argument);
* ``observable-order`` — the permutation reaches the printed output:
  both policies must reject.

Also measures the cost (extra executions) of each policy.
"""

from conftest import format_table

from repro import compile_program
from repro.api import AnalysisConfig
from repro.core import DcaAnalyzer

_PROGRAMS = {
    "map": """
func void main() {
  int[] a = new int[12];
  for (int i = 0; i < 12; i = i + 1) { a[i] = i * 3; }
  int s = 0;
  for (int i = 0; i < 12; i = i + 1) { s = s + a[i]; }
  print(s);
}
""",
    "transient-order": """
func void main() {
  int[] scratch = new int[8];
  int s = 0;
  int cur = 0;
  for (int i = 0; i < 8; i = i + 1) {
    scratch[cur] = i;
    cur = (cur + 3) % 8;
    s += i * i;
  }
  print(s);
}
""",
    "worklist-order": """
struct Node { int val; Node* next; }
func void main() {
  int[] a = new int[10];
  for (int i = 0; i < 10; i = i + 1) { a[i] = (i * 7) % 10; }
  Node* bag = null;
  for (int i = 0; i < 10; i = i + 1) {
    if (a[i] % 2 == 0) {
      Node* n = new Node;
      n->val = a[i];
      n->next = bag;
      bag = n;
    }
  }
  int s = 0;
  Node* p = bag;
  while (p) { s = s + p->val; p = p->next; }
  print(s);
}
""",
    "observable-order": """
func void main() {
  int last = 0;
  for (int i = 0; i < 10; i = i + 1) { last = i * 2 + 1; }
  print(last);
}
""",
}

#: Loop of interest per program.
_TARGETS = {
    "map": "main.L0",
    "transient-order": "main.L0",
    "worklist-order": "main.L1",
    "observable-order": "main.L0",
}


def _ablate():
    rows = []
    for name, source in _PROGRAMS.items():
        verdicts = []
        for policy in ("strict", "eventual"):
            module = compile_program(source)
            # Static pre-screen off: the ablation compares the *dynamic*
            # live-out comparison policies, so every loop must reach it.
            report = DcaAnalyzer(
                module,
                AnalysisConfig(liveout_policy=policy, static_filter=False),
            ).analyze()
            result = report.loop(_TARGETS[name])
            verdicts.append(
                "commutative" if result.is_commutative else result.verdict
            )
        rows.append((name, *verdicts))
    return rows


def test_liveout_policy_ablation(benchmark, capsys):
    rows = benchmark.pedantic(_ablate, rounds=1, iterations=1)
    table = format_table(("pattern", "strict", "eventual"), rows)
    with capsys.disabled():
        print("\n== Ablation: live-out verification policy ==")
        print(table)

    data = {r[0]: {"strict": r[1], "eventual": r[2]} for r in rows}
    # Order-free loops pass under both policies.
    assert data["map"]["strict"] == "commutative"
    assert data["map"]["eventual"] == "commutative"
    # Dead scratch is already relaxed by liveness under strict.
    assert data["transient-order"]["strict"] == "commutative"
    # Live worklist ordering: strict rejects, eventual accepts (paper §I).
    assert data["worklist-order"]["strict"] != "commutative"
    assert data["worklist-order"]["eventual"] == "commutative"
    # Observable order sensitivity is rejected by both.
    assert data["observable-order"]["strict"] != "commutative"
    assert data["observable-order"]["eventual"] != "commutative"
