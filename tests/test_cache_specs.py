"""Cache interaction with the commutativity-spec registry.

Three properties:

* toggling specs changes the configuration fingerprint, so warm
  specs-off entries are *invalidated*, never replayed into a specs-on
  run (and vice versa);
* the specs-off fingerprint description is byte-identical to the
  pre-spec format (no ``specs`` key), so existing caches stay warm;
* ``cache verify`` re-executes entries under their recorded spec
  setting — both kinds of entry survive an honest verify, even with
  ``REPRO_SPECS`` set in the environment.
"""

import pytest

import repro.obs as obs
from repro.cache import AnalysisCache
from repro.cache.keys import SEMANTICS_VERSION, fingerprint_description
from repro.core.dca import DcaAnalyzer
from repro.driver import compile_program

# Chain-building payload: dynamically testable, and only commutative
# modulo the declared multiset semantics of BagNode.
PROGRAM = """
struct BagNode { int value; BagNode* next; }

func void main() {
  BagNode* head = null;
  for (int i = 0; i < 12; i = i + 1) {
    BagNode* n = new BagNode;
    n.value = i * 3 % 7;
    n.next = head;
    head = n;
  }
  int total = 0;
  BagNode* p = head;
  while (p != null) {
    total = total + p.value;
    p = p.next;
  }
  print(total);
}
"""


def _zero() -> float:
    return 0.0


@pytest.fixture
def cache(tmp_path):
    with AnalysisCache(str(tmp_path)) as store:
        yield store


def _analyze(cache, specs):
    with obs.disabled(clock=_zero):
        return DcaAnalyzer(
            compile_program(PROGRAM),
            static_filter=False, backend="serial",
            cache=cache, source_text=PROGRAM, specs=specs,
        ).analyze()


def test_semantics_version_covers_spec_canonicalization():
    # v2 marks the equivalence-aware verifier; pre-spec stores (v1) are
    # purged wholesale on open (see test_cache.py semantics purge test).
    assert SEMANTICS_VERSION >= 2


def test_specs_off_fingerprint_has_no_specs_key():
    desc = fingerprint_description(
        ("identity", "reverse"), rtol=1e-9, max_steps=10_000,
        liveout_policy="strict", static_filter=False,
    )
    assert "specs" not in desc  # pre-spec caches must stay warm


def test_specs_toggle_invalidates_warm_entries(cache):
    cold = _analyze(cache, specs=False)
    assert cold.cache.stores > 0

    # Specs-on run: different fingerprint, so zero hits and every
    # specs-off sibling counted invalidated (not silently replayed —
    # its digests are byte-exact, the specs-on run's are canonical).
    on = _analyze(cache, specs=True)
    assert on.cache.hits == 0
    assert on.cache.invalidations > 0

    # Both configurations replay warm from their own entries.
    warm_off = _analyze(cache, specs=False)
    assert warm_off.cache.misses == 0
    assert warm_off.to_json() == cold.to_json()
    warm_on = _analyze(cache, specs=True)
    assert warm_on.cache.misses == 0
    assert warm_on.to_json() == on.to_json()


def test_specs_flip_verdict_not_cache_bleed(cache):
    off = _analyze(cache, specs=False)
    on = _analyze(cache, specs=True)
    flipped = [
        label for label in off.results
        if not off.results[label].is_commutative
        and on.results[label].is_commutative
    ]
    assert flipped, "BagNode chain loop should flip under specs"


def test_cache_verify_replays_recorded_spec_setting(cache, monkeypatch):
    _analyze(cache, specs=False)
    _analyze(cache, specs=True)
    # REPRO_SPECS in the environment must not leak into verification:
    # each entry replays under the setting recorded in its fingerprint.
    monkeypatch.setenv("REPRO_SPECS", "1")
    result = cache.verify(sample=10)
    assert result["checked"] == result["ok"] > 0
    assert result["mismatches"] == []
    assert result["unverifiable"] == []
