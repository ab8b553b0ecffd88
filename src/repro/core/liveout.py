"""Live-out snapshots (paper §IV-B3).

At every ``rt_verify`` point the DCA runtime captures the loop's observable
outcome: the values of its live-out scalars plus the entire heap reachable
from its live-out references and reference-typed globals.  Snapshots are
*canonical*: heap objects are renumbered in a deterministic DFS order from
the roots, so two executions that allocate in different orders but build
structurally identical state compare equal.

Floating-point values are compared with a relative tolerance, because
permuting a floating-point reduction legitimately reorders roundoff — the
same reason the NPB verification routines use epsilon checks.
"""

from __future__ import annotations

import hashlib
import math
import pickle
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import repro.obs as obs
from repro.interp.values import ArrayObj, StructObj
from repro.lang.types import BoolType, FloatType, IntType

#: Array element types whose values can never be heap references.  An
#: array of these snapshots as a plain copy of its data — no per-element
#: reference scan (the type checker and IR verifier guarantee a
#: scalar-typed array holds only scalars).
_SCALAR_TYPES = (IntType, FloatType, BoolType)

#: Canonical scalar or reference-placeholder in a snapshot.
SnapValue = object


@dataclass(frozen=True)
class Snapshot:
    """Canonicalized deep copy of values + reachable heap."""

    #: One entry per root: a scalar value or ("ref", canonical_id).
    roots: Tuple[SnapValue, ...]
    #: Canonical object table: objects[i] describes canonical id i as
    #: ("struct", name, (field values...)) or ("array", (elem values...)).
    objects: Tuple[Tuple, ...]

    def size(self) -> int:
        return len(self.objects)

    def approx_bytes(self) -> int:
        """Rough serialized size: 8 bytes per value slot + 16 per object
        header.  Used for observability cost accounting, not for equality.
        """
        total = 8 * len(self.roots)
        for obj in self.objects:
            values = obj[2] if obj[0] == "struct" else obj[1]
            total += 16 + 8 * len(values)
        return total


def capture(roots: Sequence[object]) -> Snapshot:
    """Snapshot ``roots`` (runtime values) and everything reachable."""
    ids: Dict[int, int] = {}
    order: List[object] = []

    def visit(value: object) -> SnapValue:
        # Exact-type test, not isinstance: scalars dominate and the heap
        # classes are never subclassed.
        cls = value.__class__
        if cls is StructObj or cls is ArrayObj:
            key = id(value)
            if key not in ids:
                ids[key] = len(order)
                order.append(value)
                # Traverse after registration (DFS preorder numbering);
                # children handled in the main loop below.
            return ("ref", ids[key])
        return value

    root_vals = tuple(visit(v) for v in roots)

    # Breadth of traversal: order grows as we scan objects.  The per-value
    # body of ``visit`` is inlined here — snapshotting touches every live
    # heap slot of every invocation, and the closure call per scalar is
    # the single largest capture cost.
    described: List[Tuple] = []
    i = 0
    while i < len(order):
        obj = order[i]
        if obj.__class__ is StructObj:
            row: List[SnapValue] = []
            for v in obj.fields.values():
                cls = v.__class__
                if cls is StructObj or cls is ArrayObj:
                    key = id(v)
                    ix = ids.get(key)
                    if ix is None:
                        ix = ids[key] = len(order)
                        order.append(v)
                    row.append(("ref", ix))
                else:
                    row.append(v)
            described.append(("struct", obj.struct_name, tuple(row)))
        elif isinstance(obj.elem_type, _SCALAR_TYPES):
            # Scalar-typed arrays cannot hold references: copy the data
            # wholesale instead of visiting element by element.
            described.append(("array", tuple(obj.data)))
        else:
            row = []
            for v in obj.data:
                cls = v.__class__
                if cls is StructObj or cls is ArrayObj:
                    key = id(v)
                    ix = ids.get(key)
                    if ix is None:
                        ix = ids[key] = len(order)
                        order.append(v)
                    row.append(("ref", ix))
                else:
                    row.append(v)
            described.append(("array", tuple(row)))
        i += 1
    return Snapshot(roots=root_vals, objects=tuple(described))


class _Bail(Exception):
    """Canonicalization bailed; compare the snapshot byte-exactly."""


def canonicalize_snapshot(
    snapshot: Snapshot, chains: Dict[str, int]
) -> Snapshot:
    """Rewrite declared containers to their multiset denotation.

    ``chains`` maps struct names declared order-insensitive (see
    :meth:`repro.analysis.specs.SpecRegistry.chain_slots`) to the slot
    index of their link field.  Every reference to such a node is
    replaced *inline* by ``("chain", name, (sorted content keys...))``
    covering the suffix reachable through the link field — a pointer into
    the middle of a chain denotes that suffix's multiset, so genuinely
    order-sensitive mid-chain references still differ.  A node's content
    key is its non-link fields with nested declared references reduced
    the same way.  Declared nodes leave the object table; survivors are
    renumbered in the original deterministic visit order.

    The rewrite *bails* — returns the snapshot unchanged, falling back to
    byte-exact comparison — whenever the multiset abstraction would be
    lossy or unsound: a cycle through link fields, a float in chain
    content (bag keys compare exactly, which would drop the rtol
    guarantee), a non-reference link value, or a chain node referencing
    an undeclared heap object (its renumbering would depend on bag
    order).  Bailing is always sound: it can only make the verifier
    stricter.
    """
    objects = snapshot.objects
    declared: Dict[int, int] = {}
    for i, obj in enumerate(objects):
        if obj[0] == "struct" and obj[1] in chains:
            declared[i] = chains[obj[1]]
    if not declared:
        obs.current().count("liveout.canonicalize.noop")
        return snapshot

    _IN_PROGRESS = ("chain-in-progress",)
    memo: Dict[int, Tuple] = {}

    def chain_value(i: int) -> Tuple:
        cached = memo.get(i)
        if cached is _IN_PROGRESS:
            raise _Bail()
        if cached is not None:
            return cached
        memo[i] = _IN_PROGRESS
        name = objects[i][1]
        keys: List[Tuple] = []
        walked = set()
        j = i
        while True:
            if j in walked:
                raise _Bail()  # cycle through the link field
            walked.add(j)
            obj = objects[j]
            if obj[0] != "struct" or obj[1] != name:
                raise _Bail()
            link = chains[name]
            row = obj[2]
            key: List[SnapValue] = []
            for slot, v in enumerate(row):
                if slot == link:
                    continue
                key.append(content_value(v))
            keys.append(tuple(key))
            nxt = row[link]
            if nxt is None:
                break
            if not (isinstance(nxt, tuple) and nxt and nxt[0] == "ref"):
                raise _Bail()
            j = nxt[1]
            if j not in declared:
                raise _Bail()
        keys.sort(key=lambda k: pickle.dumps(k, protocol=4))
        value = ("chain", name, tuple(keys))
        memo[i] = value
        return value

    def content_value(v: SnapValue) -> SnapValue:
        if isinstance(v, float):
            raise _Bail()  # exact bag keys would lose the rtol tolerance
        if isinstance(v, tuple) and v and v[0] == "ref":
            if v[1] in declared:
                return chain_value(v[1])
            raise _Bail()  # bag contents may not leak undeclared objects
        return v

    new_ids: Dict[int, int] = {}
    retained: List[int] = []

    def rewrite(v: SnapValue) -> SnapValue:
        if isinstance(v, tuple) and v and v[0] == "ref":
            j = v[1]
            if j in declared:
                return chain_value(j)
            ix = new_ids.get(j)
            if ix is None:
                ix = new_ids[j] = len(retained)
                retained.append(j)
            return ("ref", ix)
        return v

    try:
        new_roots = tuple(rewrite(v) for v in snapshot.roots)
        described: List[Tuple] = []
        k = 0
        while k < len(retained):
            obj = objects[retained[k]]
            if obj[0] == "struct":
                described.append(
                    ("struct", obj[1], tuple(rewrite(v) for v in obj[2]))
                )
            else:
                described.append(("array", tuple(rewrite(v) for v in obj[1])))
            k += 1
    except _Bail:
        obs.current().count("liveout.canonicalize.bailed")
        return snapshot
    obs.current().count("liveout.canonicalize.rewritten")
    return Snapshot(roots=new_roots, objects=tuple(described))


def snapshot_digest(snapshot: Snapshot) -> str:
    """Content hash (sha256 hex) of one canonical snapshot.

    Snapshots are already canonical (deterministic DFS renumbering), and
    their payload is tuples of scalars whose ``repr`` is stable, so the
    digest identifies the snapshot's *content* across processes.  Equal
    digests imply equal content; note the converse is weaker than
    :func:`snapshots_equal`, which tolerates float roundoff — digests are
    for cheap cross-process identity checks and mismatch reports, never a
    substitute for the rtol comparison.

    The digest is memoized on the snapshot: a golden snapshot is digested
    once, when the golden run captures it, and every replay's
    digest-first compare and mismatch report then reads the memo.  A
    frozen ``Snapshot`` never changes, so the memo cannot go stale.
    (``object.__setattr__`` bypasses the frozen-dataclass guard;
    ``_digest`` is not a field, so equality and hashing ignore it.)  The
    memo is part of the instance ``__dict__`` and so travels in the
    pickle: golden snapshots shipped to worker processes inside a
    ``ScheduleTask`` arrive digested, and a worker's compare costs no
    re-hash of the reference.
    """
    cached = snapshot.__dict__.get("_digest")
    if cached is not None:
        return cached
    # Fixed protocol: digests must agree across the coordinator and its
    # worker processes.  Pickle serializes the canonical tuples much
    # faster than repr and distinguishes everything repr did (bool vs
    # int, -0.0, float precision).
    payload = pickle.dumps((snapshot.roots, snapshot.objects), protocol=4)
    hexd = hashlib.sha256(payload).hexdigest()
    object.__setattr__(snapshot, "_digest", hexd)
    return hexd


def _values_equal(a: SnapValue, b: SnapValue, rtol: float) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b  # ("ref", id) placeholders
    if isinstance(a, bool) or isinstance(b, bool):
        # bools compare only with bools (True is not the int 1 here).
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is None and b is None
        return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol)
    return a == b


def _rows_equal(ra: Tuple, rb: Tuple, rtol: float) -> bool:
    """Elementwise value comparison with a same-type exact fast path.

    ``type(va) is type(vb) and va == vb`` short-circuits without semantic
    drift: same-type exact equality satisfies every `_values_equal` rule
    (bools only match bools, exactly-equal floats pass any rtol, ref
    placeholders compare structurally).  Only genuinely different — or
    float-within-tolerance — values take the slow path.
    """
    if len(ra) != len(rb):
        return False
    for va, vb in zip(ra, rb):
        if va is vb or (type(va) is type(vb) and va == vb):
            continue
        if not _values_equal(va, vb, rtol):
            return False
    return True


def snapshots_equal(a: Snapshot, b: Snapshot, rtol: float = 1e-9) -> bool:
    """Structural equality with float tolerance."""
    if len(a.roots) != len(b.roots) or len(a.objects) != len(b.objects):
        return False
    if not _rows_equal(a.roots, b.roots, rtol):
        return False
    for oa, ob in zip(a.objects, b.objects):
        if oa[0] != ob[0]:
            return False
        if oa[0] == "struct":
            if oa[1] != ob[1]:
                return False
            if not _rows_equal(oa[2], ob[2], rtol):
                return False
        elif not _rows_equal(oa[1], ob[1], rtol):
            return False
    return True
