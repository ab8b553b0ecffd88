"""The DCA runtime library (paper Fig. 3, right column).

One :class:`DcaRuntime` instance accompanies one program execution and
services the ``rt_*`` intrinsics:

* ``rt_iterator_record`` — linearizes the iterator: appends the payload's
  argument tuple for the current iteration to the invocation buffer;
* ``rt_iterator_permute`` — freezes the buffer and applies the schedule's
  permutation;
* ``rt_iterator_next`` / ``rt_iterator_get`` — drive the dispatch loop;
* ``rt_verify`` — counts the invocation and, for the labels the runtime
  captures, snapshots the live-outs and keeps the snapshot's content
  digest.  The golden (observe) run captures only the loops a schedule
  will replay and also keeps their snapshots, the reference every
  replay compares against.  In test mode the snapshot is compared
  online against the golden one (digests first, then the rtol-tolerant
  structural comparison) and dropped right after, so a replay holds one
  digest per invocation and no snapshots; the first mismatch aborts the
  replay.

Invocation states are kept per loop label as a *stack*, so re-entrant
invocations (recursive callers, a payload reaching the same loop again)
nest correctly — inner invocations complete before outer ones in both the
golden and the test execution, keeping completion order aligned.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import repro.obs as obs
from repro.core.instrument import RT_PERMUTE, VerifySpec
from repro.core.liveout import (
    Snapshot,
    canonicalize_snapshot,
    capture,
    snapshot_digest,
    snapshots_equal,
)
from repro.core.report import SNAPSHOT_COUNTERS
from repro.core.schedules import Schedule
from repro.interp.values import MiniCRuntimeError


class CommutativityMismatch(Exception):
    """Raised in fail-fast test mode on the first live-out divergence."""

    def __init__(self, label: str, invocation: int):
        self.label = label
        self.invocation = invocation
        super().__init__(f"live-out mismatch for {label} (invocation {invocation})")


@dataclass
class _Invocation:
    phase: str = "recording"  # "recording" | "iterating"
    buffer: List[Tuple] = field(default_factory=list)
    order: List[int] = field(default_factory=list)
    pos: int = -1


@dataclass
class Violation:
    label: str
    invocation: int


class DcaRuntime:
    """Runtime state for one observed or commutativity-testing execution.

    Each ``rt_*`` intrinsic is the public method of that name: both
    executors call it with themselves, then the intrinsic's evaluated
    arguments (the loop label first).  Only ``rt_verify`` reads the
    executor, for the live-out globals.
    """

    def __init__(
        self,
        specs: Dict[str, VerifySpec],
        schedule: Optional[Schedule] = None,
        golden: Optional[Dict[str, List[Snapshot]]] = None,
        rtol: float = 1e-9,
        fail_fast: bool = True,
        capture: Optional[Iterable[str]] = None,
    ):
        self.specs = specs
        self.schedule = schedule
        self.golden = golden
        self.rtol = rtol
        self.fail_fast = fail_fast
        #: Labels whose live-outs rt_verify captures (every label in
        #: ``specs`` when None); for any other label it only counts the
        #: invocation (the eventual policy captures none).
        self.capture = frozenset(specs if capture is None else capture)

        #: Content digests of the completed live-out snapshots per label,
        #: in completion order (every mode that captures).
        self.digests: Dict[str, List[str]] = {}
        #: The snapshots themselves, kept by the golden run only.
        self.snapshots: Dict[str, List[Snapshot]] = {}
        #: Completed invocations per label (independent of snapshotting).
        self.invocations: Dict[str, int] = {}
        #: Trip counts observed by the recording stage per completed invocation.
        self.trip_counts: Dict[str, List[int]] = {}
        self.violations: List[Violation] = []
        self._active: Dict[str, List[_Invocation]] = {}

        #: Always-on cost counters (plain ints — consumed by the report's
        #: per-loop cost breakdowns even with observability disabled).
        self.snapshots_taken = 0
        self.snapshot_nodes = 0
        self.snapshot_bytes = 0
        self.verify_comparisons = 0
        self.mismatches = 0
        #: label -> that label's share of the snapshot counters, tallied
        #: at capture (a golden tally travels in the loop's cache entry).
        self.tallies: Dict[str, Dict[str, int]] = {}
        #: Wall time of the execution this runtime accompanied, assigned
        #: by whichever driver timed it (the schedule engine).
        self.wall_ms = 0.0
        #: Compact description of the first live-out divergence, built at
        #: mismatch time (never holds snapshots — safe to pickle back
        #: from worker processes).
        self._mismatch_report: Optional[Dict[str, object]] = None
        #: Memoized ``Schedule.permutation(n)`` results keyed by
        #: ``(schedule.name, n)``: re-entrant loops with equal trip
        #: counts would otherwise recompute the identical Fisher-Yates
        #: shuffle per invocation.  Safe to share the list — ``order``
        #: is only ever indexed, never mutated.
        self._perm_cache: Dict[Tuple[str, int], List[int]] = {}
        self._obs = obs.current()
        #: Cached ``self._obs.enabled``: the runtime binds its obs context
        #: once at construction, so the flag is fixed for its lifetime and
        #: the per-iteration intrinsics can test a plain bool.
        self._obs_enabled = self._obs.enabled

    # -- iterator linearization ---------------------------------------------------

    def _stack(self, label: str) -> List[_Invocation]:
        return self._active.setdefault(label, [])

    def rt_iterator_record(self, executor, label: str, *values) -> None:
        stack = self._stack(label)
        if not stack or stack[-1].phase != "recording":
            stack.append(_Invocation())
        stack[-1].buffer.append(values)
        if self._obs_enabled:
            self._obs.metrics.counter("dca.iterations_recorded").inc()

    def rt_iterator_permute(self, executor, label: str) -> None:
        if self.schedule is None:
            raise MiniCRuntimeError(f"{RT_PERMUTE} without a schedule")
        stack = self._stack(label)
        if not stack or stack[-1].phase != "recording":
            stack.append(_Invocation())
        inv = stack[-1]
        inv.phase = "iterating"
        key = (self.schedule.name, len(inv.buffer))
        order = self._perm_cache.get(key)
        if order is None:
            order = self._perm_cache[key] = self.schedule.permutation(
                len(inv.buffer)
            )
        inv.order = order
        inv.pos = -1
        if self._obs.enabled:
            self._obs.metrics.counter("dca.permutes").inc()
            self._obs.metrics.histogram("dca.permute.len").observe(
                len(inv.buffer)
            )

    def _top(self, label: str) -> _Invocation:
        stack = self._active.get(label)
        if not stack:
            raise MiniCRuntimeError(f"no active DCA invocation for {label}")
        return stack[-1]

    def rt_iterator_next(self, executor, label: str) -> bool:
        inv = self._top(label)
        inv.pos += 1
        return inv.pos < len(inv.order)

    def rt_iterator_get(self, executor, label: str, index: int) -> object:
        inv = self._top(label)
        return inv.buffer[inv.order[inv.pos]][index]

    # -- verification ------------------------------------------------------------

    def rt_verify(self, executor, label: str, *reg_values) -> None:
        stack = self._active.get(label)
        if stack:
            inv = stack.pop()
            self.trip_counts.setdefault(label, []).append(len(inv.buffer))
        self.invocations[label] = self.invocations.get(label, 0) + 1
        if label not in self.capture:
            return
        spec = self.specs[label]
        roots = list(reg_values)
        for gname in spec.ref_globals:
            roots.append(executor.globals[gname])
        for gname in spec.scalar_globals:
            roots.append(executor.globals[gname])
        snap = capture(roots)
        if spec.equivalence:
            # Verification modulo declared equivalence: rewrite declared
            # containers to their multiset denotation before counting,
            # digesting or comparing.  Golden and test runs share the
            # same spec, so both sides canonicalize identically.
            snap = canonicalize_snapshot(snap, dict(spec.equivalence))
        nodes, nbytes = snap.size(), snap.approx_bytes()
        self.snapshots_taken += 1
        self.snapshot_nodes += nodes
        self.snapshot_bytes += nbytes
        tally = self.tallies.get(label)
        if tally is None:
            tally = self.tallies[label] = dict.fromkeys(SNAPSHOT_COUNTERS, 0)
        tally["snapshots_taken"] += 1
        tally["snapshot_nodes"] += nodes
        tally["snapshot_bytes"] += nbytes
        if self._obs.enabled:
            metrics = self._obs.metrics
            metrics.counter("dca.snapshots").inc()
            metrics.histogram("dca.snapshot.nodes").observe(nodes)
            metrics.histogram("dca.snapshot.bytes").observe(nbytes)
        digest = snapshot_digest(snap)
        done = self.digests.setdefault(label, [])
        index = len(done)
        done.append(digest)
        if self.golden is None:
            # The golden run keeps its snapshots: they are the reference
            # every replay compares against.  A replay's snapshot is
            # dropped when this call returns; a mismatch report keeps
            # only its digest and object count.
            self.snapshots.setdefault(label, []).append(snap)
            return
        self.verify_comparisons += 1
        if self._obs.enabled:
            self._obs.metrics.counter("dca.verify.comparisons").inc()
        reference = self.golden.get(label, [])
        expected = reference[index] if index < len(reference) else None
        # Digest-first: equal digests imply equal content; differing
        # digests still get the rtol-tolerant structural comparison
        # (float roundoff).  The golden digest is memoized on the
        # snapshot, and the memo survives pickling into workers.
        if expected is not None and (
            snapshot_digest(expected) == digest
            or snapshots_equal(expected, snap, rtol=self.rtol)
        ):
            return
        # All bookkeeping for the completed snapshot happens before the
        # fail-fast abort: a mismatch must not lose the comparison/
        # snapshot cost it just paid.
        self.mismatches += 1
        self.violations.append(Violation(label, index))
        if self._mismatch_report is None:
            self._mismatch_report = {
                "loop": label,
                "invocation": index,
                "kind": (
                    "liveout-divergence"
                    if expected is not None
                    else "extra-invocation"
                ),
                "expected_digest": (
                    snapshot_digest(expected) if expected is not None else ""
                ),
                "actual_digest": digest,
                "expected_objects": (
                    expected.size() if expected is not None else 0
                ),
                "actual_objects": snap.size(),
            }
        if self._obs.enabled:
            self._obs.metrics.counter("dca.verify.mismatches").inc()
            self._obs.event(
                "warning",
                "mismatch",
                f"live-out mismatch for {label} (invocation {index})",
                provenance="dynamic",
                loop=label,
                invocation=index,
            )
        if self.fail_fast:
            raise CommutativityMismatch(label, index)

    # -- results ---------------------------------------------------------------

    def max_trip_count(self, label: str) -> int:
        counts = self.trip_counts.get(label, [])
        return max(counts) if counts else 0

    def invocation_count(self, label: str) -> int:
        return self.invocations.get(label, 0)

    def snapshot_content_digest(self) -> str:
        """Content hash over every snapshot this execution captured.

        Folds the per-capture digests, labels and per-label digests in
        deterministic order, so two executions producing identical
        live-out content — regardless of which process ran them — get
        identical digests.  Workers ship this hex string back instead of
        the snapshots themselves.  Empty when no snapshots were captured
        (eventual policy).
        """
        if not self.digests:
            return ""
        h = hashlib.sha256()
        for label in sorted(self.digests):
            h.update(label.encode("utf-8"))
            for digest in self.digests[label]:
                h.update(digest.encode("ascii"))
        return h.hexdigest()

    def first_mismatch_report(self) -> Optional[Dict[str, object]]:
        """Compact description of the first live-out divergence, if any."""
        return self._mismatch_report
