#!/usr/bin/env python3
"""Parallelize a PLDS program end-to-end (paper §IV-C / Fig. 5).

Takes the Olden ``treeadd`` port, runs DCA, synthesizes the OpenMP-style
clauses, and simulates execution on machines of increasing core counts —
showing both the achievable speedup and the Amdahl wall from the
sequential iterator (linearization) phase.

Run:  python examples/plds_speedup.py
"""

from repro.analysis import build_loop_forest
from repro.baselines import build_context
from repro.benchsuite import by_name
from repro.api import AnalysisConfig
from repro.core import DcaAnalyzer, separate
from repro.parallel import MachineModel, ParallelSimulator


def main() -> None:
    bench = by_name("treeadd")
    module = bench.compile(fresh=True)

    report = DcaAnalyzer(
        bench.compile(fresh=True), AnalysisConfig(rtol=bench.rtol)
    ).analyze()
    commutative = report.commutative_labels()
    print(f"DCA found commutative: {', '.join(commutative)}")

    ctx = build_context(bench.compile(fresh=True))
    fractions = {}
    for label in commutative:
        func = module.functions[report.loop(label).function]
        loop = build_loop_forest(func).loops[label]
        fractions[label] = separate(
            func, loop, ctx.profile.loop(label).memory_flow
        ).iterator_share
    for label, frac in fractions.items():
        print(f"  {label}: {frac:.0%} of the body is the (serial) iterator")

    print("\ncores  speedup   parallelized loops")
    for cores in (2, 4, 8, 16, 32, 72, 144):
        sim = ParallelSimulator(
            bench.compile(fresh=True), model=MachineModel(cores=cores)
        )
        sp = sim.simulate(commutative, serial_fractions=fractions)
        chosen = ", ".join(sp.selection.chosen) or "(none profitable)"
        print(f"{cores:5d}  {sp.speedup:6.2f}x  {chosen}")
        for label, detail in sp.loops.items():
            clauses = detail.clauses.pragma() if detail.clauses else ""
            if cores == 72 and clauses:
                print(f"         codegen: {clauses}")

    print(
        "\nThe curve flattens early: DCA's linearize-then-dispatch scheme"
        "\nkeeps the worklist traversal sequential, so the payload share"
        "\nbounds the speedup (the paper's Table II techniques — partition-"
        "\ning, DSWP — attack exactly that limit)."
    )


if __name__ == "__main__":
    main()
