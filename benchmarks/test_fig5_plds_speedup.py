"""Fig. 5 — overall speedup from DCA parallelization of PLDS kernels
(treeadd, perimeter, water, ks, spmatmat, BFS, ising).

The executor models DCA's linearize-then-dispatch code generation: the
iterator slice of each kernel stays sequential (``serial_fractions``),
only the payload parallelizes.  Shape: every program speeds up; programs
whose payload dominates (BFS, spmatmat, ising) scale best, pure-traversal
kernels less — the baseline code generators in Table II detect nothing,
so their speedup is 1× by construction.
"""

from conftest import format_table

from repro.analysis import build_loop_forest
from repro.benchsuite import FIG5_BENCHMARKS
from repro.core import separate
from repro.parallel import MachineModel, ParallelSimulator


def _fig5(dca_reports, detection_contexts):
    rows = []
    for bench in FIG5_BENCHMARKS:
        report = dca_reports[bench.name]
        ctx = detection_contexts[bench.name]
        module = bench.compile(fresh=True)
        commutative = report.commutative_labels()
        fractions = {}
        for label in commutative:
            func = module.functions[report.loop(label).function]
            loop = build_loop_forest(func).loops[label]
            fractions[label] = separate(
                func, loop, ctx.profile.loop(label).memory_flow
            ).iterator_share
        sim = ParallelSimulator(module, model=MachineModel(cores=72))
        sp = sim.simulate(commutative, serial_fractions=fractions)
        kernel = bench.table2.kernel_label
        rows.append(
            (
                bench.name,
                f"{sp.speedup:.2f}x",
                f"{fractions.get(kernel, 0.0):.0%}",
                ", ".join(sp.selection.chosen) or "(none)",
            )
        )
    return rows


def test_fig5_plds_speedup(benchmark, dca_reports, detection_contexts, capsys):
    rows = benchmark.pedantic(
        _fig5, args=(dca_reports, detection_contexts), rounds=1, iterations=1
    )
    table = format_table(
        ("Benchmark", "DCA speedup", "Iterator share", "Parallelized"), rows
    )
    with capsys.disabled():
        print("\n== Fig. 5: DCA speedup on PLDS programs (72 cores) ==")
        print(table)

    speedups = {r[0]: float(r[1].rstrip("x")) for r in rows}
    assert all(s >= 1.0 for s in speedups.values())
    # At least the payload-heavy programs must show real speedup.
    assert sum(1 for s in speedups.values() if s > 1.5) >= 4
    assert max(speedups.values()) > 4.0
