"""Cache key derivation for the persistent analysis cache.

A cached per-loop verdict is addressed by three components:

* **module digest** — a content address of the analyzed *workload*: the
  canonical printed IR of the module (``repro.ir.printer.format_module``
  is deterministic: it walks insertion-ordered dicts populated in parse
  order) plus the entry point and the entry arguments.  Pickle bytes are
  deliberately *not* used — pickling can traverse hash-ordered
  containers, and the digest must be stable across processes and
  ``PYTHONHASHSEED`` values.
* **loop id** — the stable ``<function>.L<n>`` label assigned by
  lowering.
* **config fingerprint** — a digest of every analysis setting that can
  change a loop's dynamic verdict or its recorded payload: the schedule
  preset (names encode seeds), ``rtol``, the live-out policy, the step
  budget, the static-filter switch, the candidate restriction, and the
  execution-semantics version below.  Settings that the byte-identity
  contract already excludes from reports (schedule backend, job count,
  exec backend, observability) are deliberately *not* part of the
  fingerprint: reports are byte-identical across them, so cache entries
  are shared across them too.

Any fingerprint change makes old entries unreachable (a miss); the store
additionally counts such stale-sibling misses as *invalidations* so the
effect of a config change is visible in ``repro cache stats``.

A workload's profile summary (:class:`~repro.analysis.dynamic_deps.
ProfileSummary`) is addressed by the module digest and a **profile key**
(:func:`profile_key`) instead: the profile run executes the pristine
program, so only the execution semantics, the summary format and the
step budget can change it.  Schedules, seeds, ``rtol``, the live-out
policy, specs, tiering, the static filter, the candidate restriction and
the exec backend (profiles are equal across backends) do not, so every
config of one workload shares one summary.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional, Sequence

from repro.ir.function import Module
from repro.ir.printer import format_module

__all__ = [
    "PROFILE_FORMAT",
    "SEMANTICS_VERSION",
    "config_fingerprint",
    "fingerprint_description",
    "module_workload_digest",
    "profile_key",
]

#: Version of the execution semantics the cached verdicts were produced
#: under.  Bump whenever interpreter/compiled-backend semantics, the
#: snapshot digest algorithm, the verdict decision procedure or the
#: payload format changes in a way that could alter a cached payload;
#: stores created under a different version are purged wholesale on open.
#:
#: v2: commutativity specs (repro.analysis.specs) — rt_verify may
#: canonicalize declared containers before comparison and the static
#: pre-screen may consume spec waivers, so pre-spec entries must not be
#: replayed into spec-aware runs (and vice versa).
#:
#: v3: the golden run captures live-outs only for the loops it replays,
#: so each entry carries its loop's golden snapshot tally (``"golden"``)
#: and a warm replay adds it to the report; v2 entries lack it.
SEMANTICS_VERSION = 3

#: Version of the memoized profile-summary payload
#: (:meth:`~repro.analysis.dynamic_deps.ProfileSummary.to_payload`); bump
#: whenever that format or what the profiler records changes.
PROFILE_FORMAT = 1


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def module_workload_digest(
    module: Module, entry: str = "main", args: Sequence[object] = ()
) -> str:
    """Content address of one analyzed workload (module + entry + args)."""
    return _sha256(
        "\x00".join([format_module(module), entry, repr(list(args))])
    )


def fingerprint_description(
    schedule_names: Sequence[str],
    rtol: float = 1e-9,
    liveout_policy: str = "strict",
    static_filter: bool = True,
    max_steps: Optional[int] = None,
    candidate_labels: Optional[Sequence[str]] = None,
    specs: Optional[str] = None,
    tiering: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The canonical, JSON-serializable description a fingerprint hashes.

    Stored alongside cache entries so ``repro cache verify`` can
    reconstruct the exact configuration and re-execute cached loops.

    ``specs`` is the spec-set digest (``SpecRegistry.digest()``) when
    commutativity specs participate in verification, else None.  The key
    is emitted only when set, so specs-off fingerprints are unchanged
    from before the spec layer existed (modulo the semantics version).

    ``tiering`` follows the same pattern for the parallelization-tiering
    stage (``{"max_pipeline_stages": k}`` when tiering is on, else
    None): tiering-off fingerprints match tiering-free releases.
    """
    description: Dict[str, object] = {
        "schedules": list(schedule_names),
        "rtol": repr(rtol),
        "liveout_policy": liveout_policy,
        "static_filter": bool(static_filter),
        "max_steps": max_steps,
        "candidate_labels": (
            sorted(candidate_labels) if candidate_labels is not None else None
        ),
        "semantics_version": SEMANTICS_VERSION,
    }
    if specs is not None:
        description["specs"] = specs
    if tiering is not None:
        description["tiering"] = dict(tiering)
    return description


def config_fingerprint(description: Dict[str, object]) -> str:
    """Digest of the verdict-relevant analysis configuration, given the
    dict :func:`fingerprint_description` builds."""
    return _sha256(json.dumps(description, sort_keys=True))


def profile_key(max_steps: Optional[int] = None) -> str:
    """The profile-key component of a memoized profile summary's key."""
    return _sha256(json.dumps({
        "semantics_version": SEMANTICS_VERSION,
        "profile_format": PROFILE_FORMAT,
        "max_steps": max_steps,
    }, sort_keys=True))
