#!/usr/bin/env python3
"""Detection shoot-out on one NPB kernel (paper Tables I & III in miniature).

Runs DCA and all five baseline detectors on the EP benchmark and prints a
per-loop verdict matrix.

Run:  python examples/npb_detection.py [benchmark-name]
"""

import sys

from repro.baselines import (
    DependenceProfilingDetector,
    DiscoPopDetector,
    IccDetector,
    IdiomsDetector,
    PollyDetector,
    build_context,
)
from repro.benchsuite import by_name
from repro.api import AnalysisConfig
from repro.core import DcaAnalyzer


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "EP"
    bench = by_name(name)

    report = DcaAnalyzer(
        bench.compile(fresh=True),
        AnalysisConfig(rtol=bench.rtol, liveout_policy=bench.liveout_policy),
    ).analyze()
    ctx = build_context(bench.compile(fresh=True))

    detectors = [
        DependenceProfilingDetector(),
        DiscoPopDetector(),
        IdiomsDetector(),
        PollyDetector(),
        IccDetector(),
    ]
    results = {det.name: det.detect(ctx) for det in detectors}

    header = f"{'loop':12s} " + " ".join(f"{d.name[:8]:>8s}" for d in detectors)
    header += f" {'DCA':>18s}  ground-truth"
    print(f"Benchmark {bench.name}: {bench.description}\n")
    print(header)
    print("-" * len(header))
    for label in sorted(report.results):
        row = f"{label:12s} "
        for det in detectors:
            verdict = results[det.name].get(label)
            row += f"{'yes' if verdict and verdict.parallel else '-':>8s} "
        dca = report.results[label]
        row += f"{dca.verdict:>18s}"
        truth = bench.ground_truth.get(label)
        row += f"  {'parallel' if truth else 'ordered' if truth is not None else '?'}"
        print(row)

    found = len(report.commutative_labels())
    print(f"\nDCA: {found}/{len(report.results)} loops commutative; "
          f"expert parallelizes {len(bench.expert_loops)} of them.")


if __name__ == "__main__":
    main()
