"""SCC-DAG over the dynamic dependence profile — the pipeline tier.

The paper's verdict is binary: a loop either commutes (DOALL) or it
does not.  NOELLE's Parallelizer keeps a middle ground — when the
SCC-DAG of the loop's dependence graph is not one big cycle, the loop
can still be *decoupled-software-pipelined* (DSWP): each strongly
connected component keeps its internal order, components are assigned
to pipeline stages, and iterations stream through the stages.

This module builds that SCC-DAG per loop from two ingredients the
pipeline already computes:

* **dynamic memory dependences** (:class:`~repro.analysis.dynamic_deps.
  LoopProfile`, one loop's entry in the profile summary) — writer→reader
  pairs of static instruction sites, the cross-iteration ones flagged
  privatizable when the profile saw every location on the pair written
  before read in each iteration;
* **static register def→use edges** inside the loop body — these carry
  the scalar recurrences (``cur = cur*3 + a[i]``) that never touch
  memory and would otherwise be invisible to the profile.

Each SCC is classified à la NOELLE's ``collectSCCDAGAttrs``:

* ``parallel`` — acyclic, or every carried feature is an induction or a
  location the profile proved privatizable (clonable per worker);
* ``reduction`` — the only carried features are recognized associative
  accumulators (:mod:`repro.analysis.reductions`) or histogram updates;
* ``sequential`` — anything else (unknown carried scalars, pointer
  chases, cross-iteration flow through shared memory).

:func:`partition_stages` then chunks the SCC-DAG's topological order
into at most ``max_pipeline_stages`` weight-balanced stages; a stage is
replicable ("parallel") when none of its SCCs is sequential.  The
resulting :class:`PipelinePlan` feeds the simulated multicore executor
(:func:`repro.parallel.machine.pipeline_invocation_time`).

Whether the tiering stage runs (``--tiering`` / ``REPRO_TIERING``,
default off) is resolved by :mod:`repro.settings`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.analysis.dynamic_deps import LoopProfile
from repro.analysis.loops import Loop
from repro.analysis.reductions import (
    CARRIED_UNKNOWN,
    COMPLEX_REDUCTIONS,
    INDUCTION,
    POINTER_CHASE,
    LoopIdioms,
)
from repro.ir.function import Function

__all__ = [
    "DEFAULT_MAX_PIPELINE_STAGES",
    "ParallelismTier",
    "PipelinePlan",
    "PipelineStage",
    "SCC_PARALLEL",
    "SCC_REDUCTION",
    "SCC_SEQUENTIAL",
    "SccDag",
    "SccNode",
    "TIER_DOALL",
    "TIER_PIPELINE",
    "TIER_REDUCTION",
    "TIER_SEQUENTIAL",
    "build_sccdag",
    "partition_stages",
    "stage_shapes",
    "tier_display",
]

#: (func_name, block_name, index) — matches dynamic_deps.Site.
Site = Tuple[str, str, int]


class ParallelismTier(str, enum.Enum):
    """Per-loop parallelization tier (richest applicable transform)."""

    DOALL = "DOALL"
    REDUCTION = "REDUCTION"
    PIPELINE = "PIPELINE"
    SEQUENTIAL = "SEQUENTIAL"


#: Plain-string aliases — reports serialize tiers as these strings.
TIER_DOALL = ParallelismTier.DOALL.value
TIER_REDUCTION = ParallelismTier.REDUCTION.value
TIER_PIPELINE = ParallelismTier.PIPELINE.value
TIER_SEQUENTIAL = ParallelismTier.SEQUENTIAL.value

#: SCC classifications (collectSCCDAGAttrs' vocabulary).
SCC_PARALLEL = "parallel"
SCC_REDUCTION = "reduction"
SCC_SEQUENTIAL = "sequential"

DEFAULT_MAX_PIPELINE_STAGES = 4


def tier_display(tier: Optional[str], plan: Optional[Dict] = None) -> str:
    """Human-readable tier tag: ``PIPELINE(stages=2)`` / ``DOALL`` / …"""
    if tier is None:
        return "-"
    if tier == TIER_PIPELINE and plan:
        return f"{tier}(stages={len(plan.get('stages', ()))})"
    return tier


# -- SCC-DAG ------------------------------------------------------------------


@dataclass(frozen=True)
class SccNode:
    """One strongly connected component of the loop dependence graph."""

    index: int
    sites: Tuple[Site, ...]
    classification: str
    #: Static instruction count — the stage-balancing weight proxy.
    weight: int
    #: Why the SCC got its classification (sorted, deduplicated).
    reasons: Tuple[str, ...] = ()


@dataclass
class SccDag:
    """Condensation of a loop's dependence graph, topologically ordered."""

    label: str
    nodes: List[SccNode] = field(default_factory=list)
    #: Edges between SCC indices (source precedes target topologically).
    edges: Set[Tuple[int, int]] = field(default_factory=set)
    #: Subset of ``edges`` backed by a cross-iteration memory dependence.
    #: A stage containing both endpoints of such an edge cannot be
    #: replicated (iteration i+1 would race iteration i's producer).
    carried_edges: Set[Tuple[int, int]] = field(default_factory=set)

    def sequential_nodes(self) -> List[SccNode]:
        return [n for n in self.nodes if n.classification == SCC_SEQUENTIAL]

    def classification_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for node in self.nodes:
            counts[node.classification] = (
                counts.get(node.classification, 0) + 1
            )
        return counts


def _loop_sites(func: Function, loop: Loop) -> List[Site]:
    sites: List[Site] = []
    for name in sorted(loop.blocks):
        for idx in range(len(func.blocks[name].instrs)):
            sites.append((func.name, name, idx))
    return sites


def _register_edges(
    func: Function, loop: Loop, sites: Sequence[Site]
) -> Set[Tuple[Site, Site]]:
    """Static def→use edges for registers defined inside the loop."""
    def_sites: Dict[object, List[Site]] = {}
    use_sites: Dict[object, List[Site]] = {}
    for site in sites:
        instr = func.blocks[site[1]].instrs[site[2]]
        for reg in instr.defs():
            def_sites.setdefault(reg, []).append(site)
        for reg in instr.uses():
            use_sites.setdefault(reg, []).append(site)
    edges: Set[Tuple[Site, Site]] = set()
    for reg, defs in def_sites.items():
        for use in use_sites.get(reg, ()):
            for d in defs:
                if d != use:
                    edges.add((d, use))
    return edges


def _scc_partition(
    sites: Sequence[Site], adjacency: Dict[Site, List[Site]]
) -> List[List[Site]]:
    """Iterative Tarjan over the (deterministically ordered) site graph.

    Returns SCCs in reverse topological order of the condensation.
    """
    index_of: Dict[Site, int] = {}
    low: Dict[Site, int] = {}
    on_stack: Set[Site] = set()
    stack: List[Site] = []
    sccs: List[List[Site]] = []
    counter = [0]

    for root in sites:
        if root in index_of:
            continue
        # Explicit work stack: (node, iterator position into successors).
        work: List[Tuple[Site, int]] = [(root, 0)]
        while work:
            node, pos = work[-1]
            if pos == 0:
                index_of[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            succs = adjacency.get(node, ())
            while pos < len(succs):
                succ = succs[pos]
                pos += 1
                work[-1] = (node, pos)
                if succ not in index_of:
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if low[node] == index_of[node]:
                component: List[Site] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def build_sccdag(
    func: Function,
    loop: Loop,
    deps: LoopProfile,
    idioms: LoopIdioms,
) -> SccDag:
    """Condense the loop's dependence graph and classify every SCC.

    ``deps`` supplies the profiled memory dependences (all kinds, same-
    and cross-iteration) with the privatization flag of each carried
    pair; ``idioms`` the carried-scalar classification.
    """
    sites = _loop_sites(func, loop)
    site_set = set(sites)
    edges: Set[Tuple[Site, Site]] = _register_edges(func, loop, sites)
    # Pairs attributed to an enclosing loop's sites are dropped.
    edges.update(
        pair for pair in deps.pairs
        if pair[0] in site_set and pair[1] in site_set
    )
    #: Cross-iteration (writer site, reader site) -> every location on
    #: it privatizable.
    carried_mem: Dict[Tuple[Site, Site], bool] = {
        pair: private for pair, private in deps.carried.items()
        if pair[0] in site_set and pair[1] in site_set
    }

    adjacency: Dict[Site, List[Site]] = {}
    for src, dst in sorted(edges):
        adjacency.setdefault(src, []).append(dst)

    components = _scc_partition(sites, adjacency)
    # Tarjan yields reverse topological order; emit topological.
    components.reverse()

    #: Carried-scalar classes keyed by every def site of the register.
    scalar_class_at: Dict[Site, List[Tuple[str, str]]] = {}
    for site in sites:
        instr = func.blocks[site[1]].instrs[site[2]]
        for reg in instr.defs():
            klass = idioms.scalars.get(reg)
            if klass is not None:
                scalar_class_at.setdefault(site, []).append(
                    (reg.name, klass)
                )
    histogram_sites = {
        (block, idx) for block, idx in idioms.histogram_sites
    }

    dag = SccDag(label=loop.label)
    scc_of: Dict[Site, int] = {}
    for index, component in enumerate(components):
        for site in component:
            scc_of[site] = index
        member_set = set(component)
        cyclic = len(component) > 1 or any(
            (site, site) in edges for site in component
        )
        classification, reasons = _classify_scc(
            component,
            member_set,
            cyclic,
            edges,
            scalar_class_at,
            histogram_sites,
            carried_mem,
            deps.carried_raw,
        )
        dag.nodes.append(
            SccNode(
                index=index,
                sites=tuple(component),
                classification=classification,
                weight=len(component),
                reasons=tuple(sorted(set(reasons))),
            )
        )
    for src, dst in edges:
        a, b = scc_of[src], scc_of[dst]
        if a != b:
            dag.edges.add((a, b))
    for writer, reader in carried_mem:
        a, b = scc_of[writer], scc_of[reader]
        if a != b:
            dag.carried_edges.add((a, b))
    return dag


def _classify_scc(
    component: Sequence[Site],
    member_set: Set[Site],
    cyclic: bool,
    edges: Set[Tuple[Site, Site]],
    scalar_class_at: Dict[Site, List[Tuple[str, str]]],
    histogram_sites: Set[Tuple[str, int]],
    carried_mem: Mapping[Tuple[Site, Site], bool],
    carried_flow: FrozenSet[Tuple[Site, Site]],
) -> Tuple[str, List[str]]:
    if not cyclic:
        return SCC_PARALLEL, ["acyclic"]

    sequential_reasons: List[str] = []
    reduction_reasons: List[str] = []
    parallel_reasons: List[str] = []

    for site in component:
        for reg_name, klass in scalar_class_at.get(site, ()):
            if klass == INDUCTION:
                parallel_reasons.append(f"induction {reg_name}")
            elif klass in COMPLEX_REDUCTIONS:
                reduction_reasons.append(f"{klass} {reg_name}")
            elif klass in (CARRIED_UNKNOWN, POINTER_CHASE):
                sequential_reasons.append(f"{klass} {reg_name}")

    for (writer, reader), private in sorted(carried_mem.items()):
        if writer not in member_set or reader not in member_set:
            continue  # carried edge between SCCs: a DAG edge, not a cycle
        w_key, r_key = (writer[1], writer[2]), (reader[1], reader[2])
        if w_key in histogram_sites and r_key in histogram_sites:
            reduction_reasons.append("histogram update")
            continue
        if private and (writer, reader) not in carried_flow:
            parallel_reasons.append("privatizable location")
            continue
        sequential_reasons.append(
            f"carried memory dependence {writer[1]}[{writer[2]}]"
            f"->{reader[1]}[{reader[2]}]"
        )

    if sequential_reasons:
        return SCC_SEQUENTIAL, sequential_reasons
    if reduction_reasons:
        return SCC_REDUCTION, reduction_reasons
    return SCC_PARALLEL, parallel_reasons or ["cyclic but clonable"]


# -- pipeline stages ----------------------------------------------------------


@dataclass
class PipelineStage:
    """One DSWP stage: a contiguous chunk of the SCC-DAG topo order."""

    index: int
    scc_indices: List[int]
    weight: int
    #: Replicable stage: no sequential SCC, so iterations may spread
    #: over several workers within the stage.
    parallel: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "sccs": list(self.scc_indices),
            "weight": self.weight,
            "parallel": self.parallel,
        }


@dataclass
class PipelinePlan:
    """Stage assignment for one pipelined loop."""

    label: str
    stages: List[PipelineStage] = field(default_factory=list)
    #: SCCs classified sequential across the whole DAG.
    n_sequential: int = 0
    total_weight: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "stages": [stage.to_dict() for stage in self.stages],
            "n_sequential": self.n_sequential,
            "total_weight": self.total_weight,
        }


def stage_shapes(plan: Dict[str, object]) -> List[Tuple[int, bool]]:
    """(weight, replicable) per stage from a serialized plan dict —
    the executor-facing view (:func:`pipeline_invocation_time`)."""
    return [
        (int(stage["weight"]), bool(stage["parallel"]))
        for stage in plan.get("stages", ())
    ]


def _topo_order(dag: SccDag) -> List[int]:
    """Kahn's algorithm with deterministic smallest-index tie-breaks."""
    indegree = {node.index: 0 for node in dag.nodes}
    for _, dst in dag.edges:
        indegree[dst] += 1
    succs: Dict[int, List[int]] = {}
    for src, dst in sorted(dag.edges):
        succs.setdefault(src, []).append(dst)
    ready = sorted(i for i, d in indegree.items() if d == 0)
    order: List[int] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for succ in succs.get(node, ()):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                # Insert keeping `ready` sorted (small DAGs; O(n) fine).
                lo = 0
                while lo < len(ready) and ready[lo] < succ:
                    lo += 1
                ready.insert(lo, succ)
    return order


def partition_stages(
    dag: SccDag, max_stages: int = DEFAULT_MAX_PIPELINE_STAGES
) -> PipelinePlan:
    """Chunk the SCC-DAG topological order into balanced stages.

    Contiguous chunking is sound by construction: every DAG edge points
    forward in the topological order, so a stage only consumes values
    produced by earlier stages.  The chunk boundaries aim for equal
    weight; a stage is closed early when the remaining SCCs are needed
    one-per-stage to reach the target stage count.
    """
    plan = PipelinePlan(label=dag.label)
    order = _topo_order(dag)
    if not order:
        return plan
    nodes = {node.index: node for node in dag.nodes}
    total = sum(nodes[i].weight for i in order)
    plan.total_weight = total
    plan.n_sequential = len(dag.sequential_nodes())
    k = max(1, min(max_stages, len(order)))

    current: List[int] = []
    current_weight = 0
    done_weight = 0
    for pos, index in enumerate(order):
        current.append(index)
        current_weight += nodes[index].weight
        remaining_sccs = len(order) - pos - 1
        remaining_stages = k - len(plan.stages) - 1
        target = (total * (len(plan.stages) + 1) + k - 1) // k
        must_close = remaining_sccs == remaining_stages
        balanced = done_weight + current_weight >= target
        if remaining_stages > 0 and (must_close or balanced):
            plan.stages.append(
                _make_stage(len(plan.stages), current, nodes, dag)
            )
            done_weight += current_weight
            current, current_weight = [], 0
    if current:
        plan.stages.append(
            _make_stage(len(plan.stages), current, nodes, dag)
        )
    return plan


def _make_stage(
    index: int,
    scc_indices: List[int],
    nodes: Dict[int, SccNode],
    dag: SccDag,
) -> PipelineStage:
    members = set(scc_indices)
    replicable = all(
        nodes[i].classification != SCC_SEQUENTIAL for i in scc_indices
    ) and not any(
        src in members and dst in members
        for src, dst in dag.carried_edges
    )
    return PipelineStage(
        index=index,
        scc_indices=list(scc_indices),
        weight=sum(nodes[i].weight for i in scc_indices),
        parallel=replicable,
    )
