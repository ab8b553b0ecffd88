"""The simulated multicore executor.

Given a program, a set of parallelizable loop labels and a
:class:`~repro.parallel.machine.MachineModel`, the executor:

1. profiles one sequential run, collecting per-iteration costs for every
   candidate loop plus the dynamic nesting relation;
2. selects the outermost profitable loops (``selection.select_outermost``);
3. synthesizes OpenMP-style clauses per selected loop
   (``privatization.synthesize_clauses``);
4. replaces each selected invocation's sequential cost with its simulated
   parallel makespan and derives the whole-program speedup
   (``T_seq / T_par`` — the paper's *overall* speedup metric).

``expert_extra_fraction`` models whole-program expert restructuring beyond
loop-level parallelism (paper Fig. 7's "Expert Manual"): that fraction of
the remaining serial time is treated as perfectly parallelizable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import repro.obs as obs
from repro.analysis.loops import build_loop_forest
from repro.analysis.reductions import classify_loop
from repro.interp.compiler import create_executor
from repro.interp.profiler import Profiler
from repro.ir.function import Module
from repro.analysis.sccdag import stage_shapes
from repro.parallel.machine import (
    MachineModel,
    parallel_invocation_time,
    pipeline_invocation_time,
)
from repro.parallel.privatization import ParallelClauses, synthesize_clauses
from repro.parallel.selection import NestingObserver, Selection, select_outermost


@dataclass
class LoopSpeedup:
    """Per-loop simulation detail."""

    label: str
    coverage: float
    invocations: int
    seq_cost: int
    par_cost: int
    clauses: Optional[ParallelClauses] = None
    #: "doall" (default) or "pipeline" (DSWP stage plan supplied).
    mode: str = "doall"

    @property
    def local_speedup(self) -> float:
        if self.par_cost == 0:
            return 1.0
        return self.seq_cost / self.par_cost


@dataclass
class SpeedupReport:
    """Whole-program simulation result."""

    t_seq: int
    t_par: int
    cores: int
    selection: Selection
    loops: Dict[str, LoopSpeedup] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.t_par <= 0:
            return 1.0
        return self.t_seq / self.t_par

    def summary(self) -> str:
        lines = [
            f"T_seq={self.t_seq} T_par={self.t_par} cores={self.cores} "
            f"speedup={self.speedup:.2f}x"
        ]
        for label, det in sorted(self.loops.items()):
            tag = " [pipeline]" if det.mode == "pipeline" else ""
            lines.append(
                f"  {label}: cov={det.coverage:.1%} inv={det.invocations} "
                f"local={det.local_speedup:.1f}x{tag}"
            )
        return "\n".join(lines)


class ParallelSimulator:
    """Simulates OpenMP-style parallelization of chosen loops."""

    def __init__(
        self,
        module: Module,
        entry: str = "main",
        args: Optional[Sequence[object]] = None,
        model: Optional[MachineModel] = None,
        max_steps: Optional[int] = None,
    ):
        self.module = module
        self.entry = entry
        self.args = list(args or [])
        self.model = model or MachineModel()
        self.max_steps = max_steps
        self._profiler: Optional[Profiler] = None
        self._nesting: Optional[NestingObserver] = None

    # -- profiling ------------------------------------------------------------

    def profile(self, detail_labels: Sequence[str]) -> Profiler:
        profiler = Profiler(iteration_detail_for=set(detail_labels))
        nesting = NestingObserver()
        executor = create_executor(
            self.module, observers=[nesting, profiler], max_steps=self.max_steps
        )
        active = obs.current()
        with active.span("parallel.profile", entry=self.entry):
            executor.run(self.entry, self.args)
        if active.enabled:
            active.metrics.counter("parallel.profile_runs").inc()
            active.metrics.gauge("parallel.t_seq").set(profiler.total_cost)
        self._profiler = profiler
        self._nesting = nesting
        return profiler

    # -- simulation ---------------------------------------------------------------

    def simulate(
        self,
        candidate_labels: Sequence[str],
        min_coverage: float = 0.001,
        drop_unprofitable: bool = True,
        forced_labels: Optional[Sequence[str]] = None,
        expert_extra_fraction: float = 0.0,
        serial_fractions: Optional[Dict[str, float]] = None,
        pipeline_plans: Optional[Dict[str, Dict]] = None,
    ) -> SpeedupReport:
        """Simulate parallelizing (a profitable subset of) the candidates.

        ``pipeline_plans`` maps loop labels to serialized
        :class:`~repro.analysis.sccdag.PipelinePlan` dicts; a planned
        loop is simulated as a DSWP pipeline instead of DOALL.
        """
        active = obs.current()
        with active.span(
            "parallel.simulate", cores=self.model.cores,
            candidates=len(candidate_labels),
        ):
            report = self._simulate(
                candidate_labels,
                min_coverage,
                drop_unprofitable,
                forced_labels,
                expert_extra_fraction,
                serial_fractions,
                pipeline_plans,
            )
        if active.enabled:
            active.metrics.counter("parallel.loops_simulated").inc(
                len(report.loops)
            )
            active.metrics.gauge("parallel.speedup").set(report.speedup)
        return report

    def _simulate(
        self,
        candidate_labels: Sequence[str],
        min_coverage: float,
        drop_unprofitable: bool,
        forced_labels: Optional[Sequence[str]],
        expert_extra_fraction: float,
        serial_fractions: Optional[Dict[str, float]],
        pipeline_plans: Optional[Dict[str, Dict]] = None,
    ) -> SpeedupReport:
        profiler = self.profile(candidate_labels)
        nesting = self._nesting
        assert nesting is not None

        coverage = {
            label: profiler.coverage(label) for label in candidate_labels
        }
        selection = select_outermost(
            candidate_labels,
            coverage,
            nesting,
            min_coverage=min_coverage,
            forced=forced_labels,
        )

        t_seq = profiler.total_cost
        t_par = t_seq
        report = SpeedupReport(
            t_seq=t_seq, t_par=t_seq, cores=self.model.cores, selection=selection
        )

        clause_cache = self._clauses_for(selection.chosen)
        kept: List[str] = []
        for label in selection.chosen:
            clauses = clause_cache.get(label)
            n_red = len(clauses.reductions) if clauses else 0
            plan = (pipeline_plans or {}).get(label)
            shapes = stage_shapes(plan) if plan else []
            mode = "pipeline" if len(shapes) >= 2 else "doall"
            # DCA's linearize-then-dispatch codegen leaves the iterator
            # sequential; only the payload share of each iteration spreads
            # over the workers (relevant for PLDS traversals).
            frac = (serial_fractions or {}).get(label, 0.0)
            seq_cost = 0
            par_cost = 0
            invocations = profiler.invocations(label)
            for inv in invocations:
                costs = profiler.iteration_costs(label, inv)
                inv_seq = sum(costs)
                seq_cost += inv_seq
                if mode == "pipeline":
                    # DSWP forwards every value stage-to-stage in
                    # iteration order; the iterator rides in stage 0, so
                    # no extra serial fraction applies.
                    par_cost += pipeline_invocation_time(
                        costs, shapes, self.model
                    )
                    continue
                if frac > 0.0:
                    serial_part = int(inv_seq * frac)
                    payload = [max(int(c * (1.0 - frac)), 0) for c in costs]
                else:
                    serial_part = 0
                    payload = costs
                par_cost += serial_part + parallel_invocation_time(
                    payload, self.model, reduction_vars=n_red
                )
            if drop_unprofitable and par_cost >= seq_cost:
                selection.skipped[label] = (
                    f"unprofitable under the cost model "
                    f"({par_cost} >= {seq_cost} units)"
                )
                continue
            kept.append(label)
            t_par = t_par - seq_cost + par_cost
            report.loops[label] = LoopSpeedup(
                label=label,
                coverage=coverage.get(label, 0.0),
                invocations=len(invocations),
                seq_cost=seq_cost,
                par_cost=par_cost,
                clauses=clauses,
                mode=mode,
            )
        selection.chosen = kept

        if expert_extra_fraction > 0.0:
            serial_left = max(t_par - sum(
                d.par_cost for d in report.loops.values()
            ), 0)
            moved = int(serial_left * expert_extra_fraction)
            t_par = t_par - moved + moved // self.model.cores + (
                self.model.fork_join_cost if moved else 0
            )

        report.t_par = max(t_par, 1)
        return report

    # -- clause synthesis -----------------------------------------------------------

    def _clauses_for(self, labels: Sequence[str]) -> Dict[str, ParallelClauses]:
        out: Dict[str, ParallelClauses] = {}
        for func in self.module.functions.values():
            forest = build_loop_forest(func)
            for label in labels:
                if label in forest.loops:
                    loop = forest.loops[label]
                    idioms = classify_loop(func, loop)
                    out[label] = synthesize_clauses(func, loop, idioms)
        return out
