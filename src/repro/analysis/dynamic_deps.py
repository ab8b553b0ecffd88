"""Dynamic (profile-guided) memory-dependence analysis.

This observer reconstructs, from one instrumented execution, the memory
data-flow the paper's infrastructure obtains from LLVM instrumentation:

* **per-loop dependence edges** between *static* instruction sites —
  read-after-write (flow), write-after-read (anti) and write-after-write
  (output) — each tagged with whether the two accesses happened in the
  same iteration and/or invocation of the loop;
* **privatization facts** — whether every iteration that touches a
  location writes it before reading it (Tournavitis et al. [8]);
* access attribution through calls: an access made inside a callee is
  attributed to the (innermost) call site inside the loop's function, so
  loops with helper calls (``push``/``pop``) still produce loop-level
  edges.

Consumers:

* :mod:`repro.core.iterator_recognition` follows same-invocation flow
  edges so that e.g. ``pop(frontier)`` feeding ``frontier->size`` joins
  the iterator slice (the "profile-guided" part of generalized iterator
  recognition);
* the dependence-profiling and DiscoPoP-style baselines decide
  parallelizability from the cross-iteration edges.

The DCA analyzer reads the profile only through :meth:`DynamicDepProfiler.
summary`: a :class:`ProfileSummary` with the concrete locations folded
into one privatization flag per carried site pair.  It is small enough to
memoize per workload in the persistent analysis cache
(:meth:`ProfileSummary.to_payload`), so a warm analysis runs no profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.analysis.loops import build_loop_forest
from repro.interp.events import Observer
from repro.ir.function import Module

__all__ = [
    "DepEdge",
    "DynamicDepProfiler",
    "LoopDeps",
    "LoopProfile",
    "ProfileSummary",
    "SiteRegistry",
]

#: (func_name, block_name, index)
Site = Tuple[str, str, int]

#: (label, invocation, iteration) snapshots of the loop stack.
LoopSnap = Tuple[str, int, int]

#: (writer site, reader site) of a dependence.
SitePair = Tuple[Site, Site]


@dataclass(frozen=True)
class DepEdge:
    """A dynamic dependence between two static sites, scoped to a loop."""

    kind: str  # "raw" | "war" | "waw"
    writer: Site
    reader: Site
    same_iteration: bool
    #: The concrete location (valid within the profiled run only); lets
    #: baseline detectors consult privatization facts per edge.
    loc: Tuple = ()


class SiteRegistry:
    """Maps instruction identity to static location and loop membership."""

    def __init__(self, module: Module):
        self.module = module
        self.site_of: Dict[int, Site] = {}
        #: id(instr) -> loop labels containing the instruction.
        self.loops_of: Dict[int, Tuple[str, ...]] = {}
        for func in module.functions.values():
            forest = build_loop_forest(func)
            for block in func.ordered_blocks():
                chain = tuple(l.label for l in forest.loop_chain(block.name))
                for idx, instr in enumerate(block.instrs):
                    self.site_of[id(instr)] = (func.name, block.name, idx)
                    self.loops_of[id(instr)] = chain

    def sites_by_loop(self, chain: Tuple[int, ...]) -> Dict[str, Site]:
        """Loop label -> deepest element of an attribution chain lying
        inside that loop (labels no element lies in are absent)."""
        sites: Dict[str, Site] = {}
        for instr_id in chain:
            for label in self.loops_of.get(instr_id, ()):
                sites[label] = self.site_of[instr_id]
        return sites


@dataclass
class LoopDeps:
    """Aggregated dependence facts for one loop label."""

    label: str
    edges: Set[DepEdge] = field(default_factory=set)
    #: Locations with a cross-iteration access of any kind.
    shared_locations: int = 0

    def cross_iteration_edges(self, kind: Optional[str] = None) -> List[DepEdge]:
        """Cross-iteration edges in site order (not the hash order of
        :attr:`edges`), so a detector's first reported edge is stable."""
        return sorted(
            (
                e
                for e in self.edges
                if not e.same_iteration and (kind is None or e.kind == kind)
            ),
            key=lambda e: (e.kind, e.writer, e.reader),
        )

    def flow_edges_same_invocation(self) -> Set[Tuple[Site, Site]]:
        """(writer, reader) flow pairs — iterator-recognition input."""
        return {(e.writer, e.reader) for e in self.edges if e.kind == "raw"}


@dataclass(frozen=True)
class LoopProfile:
    """One loop's dependences between static sites, with the concrete
    locations folded away: what iterator recognition and tiering read."""

    #: Same-invocation flow (RAW) pairs: iterator-recognition input.
    memory_flow: FrozenSet[SitePair] = frozenset()
    #: Every pair with a dependence of any kind.
    pairs: FrozenSet[SitePair] = frozenset()
    #: Cross-iteration pair -> whether every location it was seen on is
    #: privatizable (:meth:`DynamicDepProfiler.is_privatizable`).
    carried: Mapping[SitePair, bool] = field(default_factory=dict)
    #: Cross-iteration flow (RAW) pairs.
    carried_raw: FrozenSet[SitePair] = frozenset()


_NO_DEPS = LoopProfile()


@dataclass(frozen=True)
class ProfileSummary:
    """What the DCA analyzer keeps of one profile run."""

    #: Instructions the profile run executed.
    steps: int
    #: Highest trip count per entered loop (its keys are the entered
    #: loops).
    max_trips: Mapping[str, int]
    #: label -> dependence facts, for loops with at least one dependence.
    loops: Mapping[str, LoopProfile]

    def loop(self, label: str) -> LoopProfile:
        return self.loops.get(label, _NO_DEPS)

    def to_payload(self) -> Dict[str, object]:
        """JSON-ready form: every site once in ``sites``, each pair list
        flattened to site indices ``[w0, r0, w1, r1, ...]``."""
        sites = sorted({
            site
            for deps in self.loops.values()
            for pair in deps.pairs
            for site in pair
        })
        index = {site: i for i, site in enumerate(sites)}

        def flat(pairs) -> List[int]:
            return [index[site] for pair in sorted(pairs) for site in pair]

        return {
            "steps": self.steps,
            "max_trips": dict(sorted(self.max_trips.items())),
            "sites": [list(site) for site in sites],
            "loops": {
                label: {
                    "memory_flow": flat(deps.memory_flow),
                    "pairs": flat(deps.pairs),
                    "carried": flat(deps.carried),
                    "privatizable": [
                        deps.carried[pair] for pair in sorted(deps.carried)
                    ],
                    "carried_raw": flat(deps.carried_raw),
                }
                for label, deps in sorted(self.loops.items())
            },
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ProfileSummary":
        """Inverse of :meth:`to_payload`."""
        sites = [tuple(site) for site in payload["sites"]]

        def pairs(flat: List[int]) -> List[SitePair]:
            it = iter(flat)
            return [(sites[w], sites[r]) for w, r in zip(it, it)]

        loops = {}
        for label, entry in payload["loops"].items():
            loops[label] = LoopProfile(
                memory_flow=frozenset(pairs(entry["memory_flow"])),
                pairs=frozenset(pairs(entry["pairs"])),
                carried=dict(
                    zip(pairs(entry["carried"]), entry["privatizable"])
                ),
                carried_raw=frozenset(pairs(entry["carried_raw"])),
            )
        return cls(
            steps=payload["steps"],
            max_trips=dict(payload["max_trips"]),
            loops=loops,
        )


class DynamicDepProfiler(Observer):
    """Observer recording the dependences of every loop executed.

    The handlers run once per memory access of the profiled execution,
    so their state is kept in plain tuples and lists: an access is
    ``(sites, loops)`` — the attribution chain's loop label -> site map
    and the loop-stack snapshot — and an edge is recorded only the first
    time its tuple key is seen on a location: the location is appended
    under its ``(label, kind, writer, reader, same_iteration)`` key.
    :attr:`loop_deps` builds the :class:`DepEdge` sets from those on
    demand, and :meth:`summary` folds each key's locations without
    building any.
    """

    wants_memory = True
    wants_loops = True

    #: Cap on remembered reads per location between writes.
    _MAX_READS = 6

    def __init__(self, module: Module, registry: Optional[SiteRegistry] = None):
        self.registry = registry or SiteRegistry(module)
        #: Edge key -> the concrete locations it was seen on.
        self._edge_locs: Dict[Tuple, List] = {}
        #: The :attr:`loop_deps` built from ``_edge_locs``; None once a
        #: new edge makes it stale.
        self._loop_deps: Optional[Dict[str, LoopDeps]] = None
        #: loc -> [last write access or None, reads since that write,
        #: loop snapshot of the latest access, privatization states
        #: (see _update_priv), keys of the edges recorded on loc].
        self._locs: Dict[Tuple, list] = {}
        #: Labels of loops that were entered at least once.
        self.executed: set = set()
        #: Highest trip count observed per loop label (across invocations).
        self.max_trips: Dict[str, int] = {}
        self.interp = None  # set by attach()
        #: Incremental mirror of the interpreter's loop stack, rebuilt on
        #: loop events (rare) so per-access snapshots (hot) reuse it.
        self._lstack: List[LoopSnap] = []
        self._loops_snap: Tuple[LoopSnap, ...] = ()
        #: Call-chain prefix cached against interp.call_stack_version.
        self._chain_base: Tuple[int, ...] = ()
        self._chain_version = -1
        #: id(instr) (empty call chain) or the full chain -> site map.
        self._site_maps: Dict[object, Dict[str, Site]] = {}
        #: Whether a label repeats on the current loop stack.
        self._snap_dups = False

    def on_loop_enter(self, label: str, invocation: int) -> None:
        self.executed.add(label)
        self.max_trips.setdefault(label, 0)
        self._lstack.append((label, invocation, 0))
        self._loops_snap = tuple(self._lstack)
        self._snap_dups = self._has_dups()

    def on_loop_iteration(self, label: str, invocation: int, iteration: int) -> None:
        if iteration > self.max_trips.get(label, 0):
            self.max_trips[label] = iteration
        self._lstack[-1] = (label, invocation, iteration)
        self._loops_snap = tuple(self._lstack)

    def on_loop_exit(self, label: str, invocation: int) -> None:
        if self._lstack:
            self._lstack.pop()
        self._loops_snap = tuple(self._lstack)
        self._snap_dups = self._has_dups()

    def _has_dups(self) -> bool:
        """Whether a loop label repeats on the current loop stack."""
        labels = {entry[0] for entry in self._lstack}
        return len(labels) != len(self._lstack)

    # -- event handlers ---------------------------------------------------------

    def _site_map(self, chain: Tuple[int, ...], key) -> Dict[str, Site]:
        sites = self._site_maps[key] = self.registry.sites_by_loop(chain)
        return sites

    def on_read(self, loc, instr) -> None:
        # The access is (loop label -> attributed site, loop snapshot);
        # site maps are keyed by id(instr) outside calls, else by chain.
        interp = self.interp
        if interp.call_stack_version != self._chain_version:
            self._chain_base = tuple([id(c) for c in interp.call_stack])
            self._chain_version = interp.call_stack_version
        base = self._chain_base
        key = base + (id(instr),) if base else id(instr)
        sites = self._site_maps.get(key)
        if sites is None:
            sites = self._site_map(base + (id(instr),), key)
        snap = self._loops_snap
        access = (sites, snap)
        entry = self._locs.get(loc)
        if entry is None:
            self._locs[loc] = [None, [access], snap, {}, set()]
            if snap:
                self._update_priv(self._locs[loc][3], snap, False)
            return
        write = entry[0]
        if write is not None and snap:
            self._emit_edges("raw", entry, loc, write, access)
        reads = entry[1]
        if len(reads) < self._MAX_READS:
            reads.append(access)
        else:
            reads[-1] = access
        # Same snapshot object as the location's latest access: every
        # per-loop state of the location is already current.
        if entry[2] is not snap:
            entry[2] = snap
            self._update_priv(entry[3], snap, False)

    def on_write(self, loc, instr) -> None:
        interp = self.interp
        if interp.call_stack_version != self._chain_version:
            self._chain_base = tuple([id(c) for c in interp.call_stack])
            self._chain_version = interp.call_stack_version
        base = self._chain_base
        key = base + (id(instr),) if base else id(instr)
        sites = self._site_maps.get(key)
        if sites is None:
            sites = self._site_map(base + (id(instr),), key)
        snap = self._loops_snap
        access = (sites, snap)
        entry = self._locs.get(loc)
        if entry is None:
            self._locs[loc] = [access, [], snap, {}, set()]
            if snap:
                self._update_priv(self._locs[loc][3], snap, True)
            return
        reads = entry[1]
        if snap:
            prev_write = entry[0]
            if prev_write is not None:
                self._emit_edges("waw", entry, loc, prev_write, access)
            prev = None
            for read in reads:  # anti dependences
                # A repeat of the previous read yields the same edges.
                if prev is None or read[0] is not prev[0] \
                        or read[1] is not prev[1]:
                    self._emit_edges("war", entry, loc, read, access)
                prev = read
        reads.clear()
        entry[0] = access
        if entry[2] is not snap:
            entry[2] = snap
            self._update_priv(entry[3], snap, True)

    # -- bookkeeping -----------------------------------------------------------

    def _emit_edges(self, kind: str, entry, loc, first, second) -> None:
        """Record an edge for every loop containing both accesses.

        ``second`` is always the access being handled, so its loops are
        the current loop stack.  ``entry[4]`` holds the location's
        recorded ``(label, kind, writer, reader, same_iteration)`` keys.
        """
        first_sites, first_loops = first
        second_sites = second[0]
        keys = entry[4]
        if first_loops is second[1]:
            # Same loop-stack snapshot: same invocation and iteration of
            # every active loop.
            for label, _invocation, _iteration in first_loops:
                w_site = first_sites.get(label)
                r_site = second_sites.get(label)
                if w_site is not None and r_site is not None:
                    key = (label, kind, w_site, r_site, True)
                    if key not in keys:
                        keys.add(key)
                        self._add_edge(key, loc)
            return
        if self._snap_dups:
            self._emit_edges_by_label(kind, entry, loc, first, second)
            return
        # Without repeated labels on the current stack, a loop instance
        # (label, invocation) active at both accesses sits at the same
        # depth in both snapshots, with the same instances below it: the
        # shared instances are exactly the common prefix.
        for mine, other in zip(first_loops, second[1]):
            label = mine[0]
            if other[0] != label or other[1] != mine[1]:
                break
            w_site = first_sites.get(label)
            r_site = second_sites.get(label)
            if w_site is None or r_site is None:
                continue
            key = (label, kind, w_site, r_site, other[2] == mine[2])
            if key not in keys:
                keys.add(key)
                self._add_edge(key, loc)

    def _emit_edges_by_label(self, kind: str, entry, loc, first, second) -> None:
        """:meth:`_emit_edges` when a label repeats on the current stack
        (a loop re-entered through recursion): each label of ``first``
        pairs with that label's innermost entry on the current stack."""
        first_sites, first_loops = first
        second_sites = second[0]
        keys = entry[4]
        second_ctx = {s[0]: s for s in second[1]}
        for label, invocation, iteration in first_loops:
            other = second_ctx.get(label)
            if other is None or other[1] != invocation:
                continue  # different invocation (or loop not active)
            w_site = first_sites.get(label)
            r_site = second_sites.get(label)
            if w_site is None or r_site is None:
                continue
            key = (label, kind, w_site, r_site, other[2] == iteration)
            if key not in keys:
                keys.add(key)
                self._add_edge(key, loc)

    def _add_edge(self, key: Tuple, loc) -> None:
        locs = self._edge_locs.get(key)
        if locs is None:
            self._edge_locs[key] = [loc]
        else:
            locs.append(loc)
        self._loop_deps = None

    @staticmethod
    def _update_priv(states: Dict[str, list], snap, is_write: bool) -> None:
        """Privatization tracking of one location: ``states`` maps a loop
        label to [invocation, iteration, always written first]."""
        for label, invocation, iteration in snap:
            state = states.get(label)
            if state is None:
                states[label] = [invocation, iteration, is_write]
            elif state[0] != invocation or state[1] != iteration:
                state[0] = invocation
                state[1] = iteration
                if not is_write:
                    state[2] = False

    # -- results ---------------------------------------------------------------

    @property
    def loop_deps(self) -> Dict[str, LoopDeps]:
        """Label -> :class:`LoopDeps` of every loop with an edge."""
        if self._loop_deps is None:
            self._loop_deps = {}
            for key, locs in self._edge_locs.items():
                label, kind, w_site, r_site, same_iteration = key
                deps = self._loop_deps.get(label)
                if deps is None:
                    deps = self._loop_deps[label] = LoopDeps(label)
                deps.edges.update(
                    DepEdge(kind, w_site, r_site, same_iteration, loc)
                    for loc in locs
                )
        return self._loop_deps

    def summary(self, steps: int) -> ProfileSummary:
        """The profile as the DCA analyzer reads it, for a run of
        ``steps`` instructions."""
        locs_state = self._locs
        building: Dict[str, Tuple[set, set, dict, set]] = {}
        for key, locs in self._edge_locs.items():
            label, kind, w_site, r_site, same_iteration = key
            parts = building.get(label)
            if parts is None:
                parts = building[label] = (set(), set(), {}, set())
            flow, pairs, carried, carried_raw = parts
            pair = (w_site, r_site)
            pairs.add(pair)
            if kind == "raw":
                flow.add(pair)
            if same_iteration:
                continue
            if kind == "raw":
                carried_raw.add(pair)
            if carried.get(pair, True):
                # is_privatizable over every location, inlined: a
                # location this loop never touched has no state.
                private = True
                for loc in locs:
                    state = locs_state[loc][3].get(label)
                    if state is not None and not state[2]:
                        private = False
                        break
                carried[pair] = private
        return ProfileSummary(
            steps=steps,
            max_trips=dict(self.max_trips),
            loops={
                label: LoopProfile(
                    memory_flow=frozenset(flow),
                    pairs=frozenset(pairs),
                    carried=carried,
                    carried_raw=frozenset(carried_raw),
                )
                for label, (flow, pairs, carried, carried_raw)
                in building.items()
            },
        )

    def deps_for(self, label: str) -> LoopDeps:
        return self.loop_deps.get(label, LoopDeps(label))

    def is_privatizable(self, label: str, loc) -> bool:
        """Every iteration of ``label`` touching ``loc`` wrote it first."""
        entry = self._locs.get(loc)
        state = entry[3].get(label) if entry is not None else None
        if state is None:
            return True
        return state[2]

    def memory_flow_edges(self) -> Dict[str, Set[Tuple[Site, Site]]]:
        """Same-invocation flow edges per loop, for iterator recognition."""
        return {
            label: deps.flow_edges_same_invocation()
            for label, deps in self.loop_deps.items()
        }
