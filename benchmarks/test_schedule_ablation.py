"""Ablation — adequacy of the reduced permutation presets (paper §III/§V-D).

DCA accepts a chance of missing an order-sensitive loop because it tests
only a few permutations.  This harness seeds loops with increasingly
subtle order sensitivity and measures which schedule catches each:

* ``sum-first-half``: only iterations 0..n/2 contribute — any permutation
  moving mass across the midpoint catches it, reverse included;
* ``adjacent-swap``: sensitive only to the relative order of one adjacent
  pair — reverse catches it, rotation does not;
* ``last-wins``: a scalar keeps the value of the *last* iteration —
  caught by any permutation that changes the final element;
* ``benign``: a true reduction, no schedule may flag it.

Shape: identity alone catches nothing; the paper preset
(reverse + random shuffles) catches every seeded violation here while
never flagging the benign loop — the "surprisingly powerful in practice"
claim at micro scale.
"""

from conftest import format_table

from repro import compile_program
from repro.api import AnalysisConfig
from repro.core import (
    DcaAnalyzer,
    EvenOddSchedule,
    IdentitySchedule,
    RandomSchedule,
    ReverseSchedule,
    RotationSchedule,
    ScheduleConfig,
)

_PROGRAMS = {
    "sum-first-half": """
func void main() {
  int[] a = new int[16];
  int s = 0;
  for (int i = 0; i < 16; i = i + 1) {
    if (s < 100) { a[i] = i; }
    s = s + 20;
  }
  int t = 0;
  for (int i = 0; i < 16; i = i + 1) { t = t + a[i]; }
  print(t);
}
""",
    "adjacent-swap": """
func void main() {
  int[] a = new int[12];
  int last = 0 - 1;
  for (int i = 0; i < 12; i = i + 1) {
    if (i == 7) { a[i] = last; } else { a[i] = i; }
    last = i;
  }
  int t = 0;
  for (int i = 0; i < 12; i = i + 1) { t = t + a[i] * (i + 1); }
  print(t);
}
""",
    "last-wins": """
func void main() {
  int winner = 0;
  for (int i = 0; i < 10; i = i + 1) {
    winner = i * 3 + 1;
  }
  print(winner);
}
""",
    "benign": """
func void main() {
  int s = 0;
  for (int i = 0; i < 16; i = i + 1) { s += i * i; }
  print(s);
}
""",
}

_SCHEDULE_SETS = {
    "identity-only": ScheduleConfig([IdentitySchedule()]),
    "rotate1": ScheduleConfig([IdentitySchedule(), RotationSchedule(1)]),
    "reverse": ScheduleConfig([IdentitySchedule(), ReverseSchedule()]),
    "evenodd": ScheduleConfig([IdentitySchedule(), EvenOddSchedule()]),
    "paper-preset": ScheduleConfig.default(n_random=2),
    "random4": ScheduleConfig(
        [IdentitySchedule()] + [RandomSchedule(100 + i) for i in range(4)]
    ),
}


def _ablate():
    rows = []
    for prog_name, source in _PROGRAMS.items():
        verdicts = []
        for sched_name, config in _SCHEDULE_SETS.items():
            module = compile_program(source)
            # Static pre-screen off: this ablation measures what the
            # *dynamic* schedules alone can observe.
            report = DcaAnalyzer(
                module,
                AnalysisConfig(schedules=config, static_filter=False),
            ).analyze()
            target = report.loop("main.L0")
            verdicts.append("comm" if target.is_commutative else "CAUGHT")
        rows.append((prog_name, *verdicts))
    return rows


def test_schedule_ablation(benchmark, capsys):
    rows = benchmark.pedantic(_ablate, rounds=1, iterations=1)
    headers = ("Program", *(name for name in _SCHEDULE_SETS))
    table = format_table(headers, rows)
    with capsys.disabled():
        print("\n== Ablation: permutation-schedule adequacy ==")
        print(table)

    data = {r[0]: dict(zip(list(_SCHEDULE_SETS), r[1:])) for r in rows}
    # Identity alone can never observe order sensitivity.
    for name in ("sum-first-half", "adjacent-swap", "last-wins"):
        assert data[name]["identity-only"] == "comm"
    # The paper preset catches every seeded violation here.
    for name in ("sum-first-half", "adjacent-swap", "last-wins"):
        assert data[name]["paper-preset"] == "CAUGHT", name
    # ...and never flags a true reduction.
    for sched in _SCHEDULE_SETS:
        assert data["benign"][sched] == "comm"
    # Reverse alone already catches the midpoint and adjacent cases.
    assert data["sum-first-half"]["reverse"] == "CAUGHT"
    assert data["adjacent-swap"]["reverse"] == "CAUGHT"
