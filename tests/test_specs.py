"""Commutativity-spec registry: registry mechanics, the `commutative`
annotation checker (including the interprocedural effect/alias corners
it leans on), snapshot canonicalization, and the static prover's spec
consumption.

The soundness direction throughout: a spec or annotation may only ever
*relax* verification where the declared footprint is provably matched —
anything outside it must be rejected or bailed, never silently trusted.
"""

import pytest

import repro.obs as obs
from repro import compile_program
from repro.analysis.commutativity import (
    PROVEN_COMMUTATIVE,
    StaticCommutativityAnalysis,
)
from repro.analysis.purity import EffectAnalysis
from repro.analysis.specs import (
    SpecRegistry,
    chain_insert_spec,
    check_annotations,
    default_registry,
)
from repro.api import AnalysisConfig
from repro.core.dca import DcaAnalyzer
from repro.core.liveout import Snapshot, canonicalize_snapshot
from repro.core.report import DECIDED_STATIC_SPECS
from repro.settings import resolve


def _zero() -> float:
    return 0.0


# ---------------------------------------------------------------------------
# Registry mechanics
# ---------------------------------------------------------------------------

BAG_PROGRAM = """
struct BagNode { int value; BagNode* next; }

func void main() {
  BagNode* head = null;
  for (int i = 0; i < 10; i = i + 1) {
    BagNode* n = new BagNode;
    n.value = i * 5 % 3;
    n.next = head;
    head = n;
  }
  int t = 0;
  BagNode* p = head;
  while (p != null) {
    t = t + p.value;
    p = p.next;
  }
  print(t);
}
"""


def test_registry_digest_is_order_insensitive():
    a = chain_insert_spec(
        "BagNode", "next", (("value", "int"), ("next", "BagNode*"))
    )
    b = chain_insert_spec(
        "SetNode", "next", (("key", "int"), ("next", "SetNode*"))
    )
    assert SpecRegistry((a, b)).digest() == SpecRegistry((b, a)).digest()
    assert SpecRegistry((a,)).digest() != SpecRegistry((a, b)).digest()


def test_chain_slots_requires_exact_signature():
    module = compile_program(BAG_PROGRAM)
    assert default_registry().chain_slots(module) == {"BagNode": 1}

    # Same struct name, different field signature: the spec stays inert.
    imposter = compile_program("""
struct BagNode { int value; int weight; BagNode* next; }

func void main() {
  BagNode* n = new BagNode;
  n.value = 1;
  print(n.value);
}
""")
    assert default_registry().chain_slots(imposter) == {}


def test_extended_registry_covers_module_chains():
    module = compile_program("""
struct Node { int value; Node* next; }

func void main() {
  Node* head = null;
  for (int i = 0; i < 4; i = i + 1) {
    Node* n = new Node;
    n.value = i;
    n.next = head;
    head = n;
  }
  print(head.value);
}
""")
    base = default_registry()
    widened = base.extended_with_module_chains(module)
    assert "Node" not in base.chain_slots(module)
    assert widened.chain_slots(module).get("Node") == 1
    assert widened.digest() != base.digest()


def test_registry_from_env(monkeypatch):
    module = compile_program("func void main() { print(1); }")
    monkeypatch.delenv("REPRO_SPECS", raising=False)
    assert resolve("specs") is False
    assert DcaAnalyzer(module).specs is None
    for falsy in ("", "0", "false", "no", "off", " OFF "):
        monkeypatch.setenv("REPRO_SPECS", falsy)
        assert resolve("specs") is False
        assert DcaAnalyzer(module).specs is None
    monkeypatch.setenv("REPRO_SPECS", "1")
    assert resolve("specs") is True
    assert DcaAnalyzer(module).specs.digest() == default_registry().digest()
    assert DcaAnalyzer(module, AnalysisConfig(specs=False)).specs is None


# ---------------------------------------------------------------------------
# Annotation checker: accepted footprints
# ---------------------------------------------------------------------------


def _reports(source):
    return check_annotations(compile_program(source))


def test_pure_annotation_validates():
    reports = _reports("""
commutative func int square(int x) {
  return x * x;
}

func void main() {
  print(square(7));
}
""")
    assert reports["square"].ok and reports["square"].kind == "pure"


def test_monoid_annotations_validate():
    reports = _reports("""
int total = 0;
int peak = 0;

commutative func void add(int x) {
  total = total + x;
}

commutative func void track_max(int x) {
  peak = max(peak, x);
}

func void main() {
  add(3);
  track_max(9);
  print(total);
  print(peak);
}
""")
    assert reports["add"].ok and reports["add"].kind == "monoid"
    assert reports["add"].state_global == "total"
    assert reports["track_max"].ok
    assert reports["track_max"].kind == "monoid"


def test_prng_annotation_validates():
    reports = _reports("""
int seed = 42;

commutative func int next_rand() {
  seed = (seed * 1103515245 + 12345) % 2147483647;
  return seed;
}

func void main() {
  print(next_rand());
}
""")
    assert reports["next_rand"].ok and reports["next_rand"].kind == "prng"
    assert reports["next_rand"].state_global == "seed"


def test_fresh_alloc_annotation_validates():
    reports = _reports("""
struct Pair { int a; int b; }

commutative func Pair* make_pair(int a, int b) {
  Pair* p = new Pair;
  p.a = a;
  p.b = b;
  return p;
}

func void main() {
  Pair* p = make_pair(1, 2);
  print(p.a);
}
""")
    report = reports["make_pair"]
    assert report.ok and report.kind == "fresh-alloc"


# ---------------------------------------------------------------------------
# Annotation checker: interprocedural corners (purity/alias fixpoints)
# ---------------------------------------------------------------------------


def test_direct_recursion_folds_into_summary():
    source = """
commutative func int fib(int n) {
  if (n < 2) {
    return n;
  }
  return fib(n - 1) + fib(n - 2);
}

func void main() {
  print(fib(10));
}
"""
    reports = _reports(source)
    assert reports["fib"].ok and reports["fib"].kind == "pure"
    # The fixpoint must terminate with a closed summary.
    eff = EffectAnalysis(compile_program(source)).of("fib")
    assert not eff.writes_heap and not eff.globals_written


def test_mutual_recursion_folds_into_summary():
    reports = _reports("""
commutative func int is_even(int n) {
  if (n == 0) {
    return 1;
  }
  return is_odd(n - 1);
}

commutative func int is_odd(int n) {
  if (n == 0) {
    return 0;
  }
  return is_even(n - 1);
}

func void main() {
  print(is_even(10));
}
""")
    assert reports["is_even"].ok and reports["is_even"].kind == "pure"
    assert reports["is_odd"].ok and reports["is_odd"].kind == "pure"


def test_recursive_constructor_is_fresh_alloc():
    reports = _reports("""
struct Node { int value; Node* next; }

commutative func Node* build(int n) {
  if (n == 0) {
    return null;
  }
  Node* head = new Node;
  head.value = n;
  head.next = build(n - 1);
  return head;
}

func void main() {
  Node* list = build(5);
  print(list.value);
}
""")
    assert reports["build"].ok and reports["build"].kind == "fresh-alloc"


def test_effects_through_conditional_call_are_not_masked():
    # The impure branch may never execute dynamically; the summary must
    # still include it, so the annotation is rejected.
    reports = _reports("""
int log_count = 0;

func void log_event() {
  log_count = log_count + 1;
  print(log_count);
}

commutative func int guarded(int x) {
  if (x > 100) {
    log_event();
  }
  return x * 2;
}

func void main() {
  print(guarded(3));
}
""")
    report = reports["guarded"]
    assert not report.ok
    assert "I/O" in report.reason or "output order" in report.reason


def test_allocate_only_summary_validates_as_fresh():
    # Allocates scratch space it never leaks: allocate-only summaries
    # must count as fresh, not as arbitrary heap mutation.
    reports = _reports("""
commutative func int scratch_sum(int a, int b) {
  int[] tmp = new int[2];
  tmp[0] = a;
  tmp[1] = b;
  return tmp[0] + tmp[1];
}

func void main() {
  print(scratch_sum(2, 3));
}
""")
    report = reports["scratch_sum"]
    assert report.ok and report.kind == "fresh-alloc"


# ---------------------------------------------------------------------------
# Annotation checker: rejected footprints
# ---------------------------------------------------------------------------


def test_global_overwrite_is_unsound():
    reports = _reports("""
int last = 0;

commutative func void record(int x) {
  last = x;
}

func void main() {
  record(5);
  print(last);
}
""")
    assert not reports["record"].ok


def test_io_is_unsound():
    reports = _reports("""
commutative func void shout(int x) {
  print(x);
}

func void main() {
  shout(1);
}
""")
    report = reports["shout"]
    assert not report.ok and "I/O" in report.reason


def test_stale_heap_write_is_unsound():
    # Writes through a parameter: memory allocated by the *caller*, so
    # the constructor-freshness argument does not apply.
    reports = _reports("""
struct Cell { int value; }

commutative func void poke(Cell* c, int x) {
  c.value = x;
}

func void main() {
  Cell* c = new Cell;
  poke(c, 3);
  print(c.value);
}
""")
    assert not reports["poke"].ok
    assert "fresh" in reports["poke"].reason


def test_multiple_globals_is_unsound():
    reports = _reports("""
int a = 0;
int b = 0;

commutative func void both(int x) {
  a = a + x;
  b = b + x;
}

func void main() {
  both(2);
  print(a);
}
""")
    assert not reports["both"].ok


# ---------------------------------------------------------------------------
# Snapshot canonicalization
# ---------------------------------------------------------------------------

CHAINS = {"BagNode": 1}


def _chain_snapshot(values):
    """A root pointing at a BagNode chain holding ``values`` in order."""
    objects = []
    for i, v in enumerate(values):
        link = ("ref", i + 1) if i + 1 < len(values) else None
        objects.append(("struct", "BagNode", (v, link)))
    return Snapshot(roots=(("ref", 0),), objects=tuple(objects))


def test_canonicalize_equates_permuted_chains():
    a = canonicalize_snapshot(_chain_snapshot([1, 2, 3]), CHAINS)
    b = canonicalize_snapshot(_chain_snapshot([3, 1, 2]), CHAINS)
    assert a == b
    assert a.objects == ()  # chain nodes leave the object table


def test_canonicalize_distinguishes_different_multisets():
    a = canonicalize_snapshot(_chain_snapshot([1, 2, 2]), CHAINS)
    b = canonicalize_snapshot(_chain_snapshot([1, 1, 2]), CHAINS)
    assert a != b


def test_canonicalize_no_declared_nodes_is_identity():
    snap = Snapshot(roots=(("ref", 0),),
                    objects=(("struct", "Other", (1, None)),))
    assert canonicalize_snapshot(snap, CHAINS) is snap


def test_canonicalize_bails_on_link_cycle():
    snap = Snapshot(
        roots=(("ref", 0),),
        objects=(
            ("struct", "BagNode", (1, ("ref", 1))),
            ("struct", "BagNode", (2, ("ref", 0))),
        ),
    )
    assert canonicalize_snapshot(snap, CHAINS) is snap


def test_canonicalize_bails_on_float_content():
    snap = Snapshot(
        roots=(("ref", 0),),
        objects=(("struct", "BagNode", (1.5, None)),),
    )
    assert canonicalize_snapshot(snap, CHAINS) is snap


def test_canonicalize_bails_on_undeclared_reference_in_content():
    snap = Snapshot(
        roots=(("ref", 0),),
        objects=(
            ("struct", "BagNode", (("ref", 1), None)),
            ("array", (7, 8)),
        ),
    )
    assert canonicalize_snapshot(snap, CHAINS) is snap


def test_mid_chain_reference_denotes_the_suffix():
    # Two roots: the head and a mid-chain pointer.  The suffixes differ
    # even though the full chains hold the same multiset.
    def snap(values, mid):
        base = _chain_snapshot(values)
        return Snapshot(roots=base.roots + (("ref", mid),),
                        objects=base.objects)

    a = canonicalize_snapshot(snap([1, 2, 3], 1), CHAINS)
    b = canonicalize_snapshot(snap([2, 1, 3], 1), CHAINS)
    assert a.roots[0] == b.roots[0]  # same full multiset from the head
    assert a.roots[1] != b.roots[1]  # different suffix multisets


def test_canonicalize_renumbers_survivors():
    snap = Snapshot(
        roots=(("ref", 0), ("ref", 1)),
        objects=(
            ("struct", "BagNode", (4, None)),
            ("array", (9,)),
        ),
    )
    out = canonicalize_snapshot(snap, CHAINS)
    assert out.roots[0] == ("chain", "BagNode", ((4,),))
    assert out.roots[1] == ("ref", 0)
    assert out.objects == (("array", (9,)),)


# ---------------------------------------------------------------------------
# Static prover consumption
# ---------------------------------------------------------------------------


def test_chain_build_loop_proven_with_specs_only():
    module = compile_program(BAG_PROGRAM)
    base = StaticCommutativityAnalysis(module).analyze()
    assert base["main.L0"].verdict != PROVEN_COMMUTATIVE

    specd = StaticCommutativityAnalysis(
        compile_program(BAG_PROGRAM), specs=default_registry()
    ).analyze()
    verdict = specd["main.L0"]
    assert verdict.verdict == PROVEN_COMMUTATIVE
    assert verdict.used_specs
    assert any(e.kind == "spec-chain-insert" for e in verdict.evidence)
    # used_specs serializes only when set, keeping specs-off rows stable.
    assert "used_specs" in verdict.to_dict()
    assert "used_specs" not in base["main.L0"].to_dict()


def test_spec_proof_reports_static_specs_provenance():
    with obs.disabled(clock=_zero):
        report = DcaAnalyzer(
            compile_program(BAG_PROGRAM),
            AnalysisConfig(backend="serial", specs=True),
        ).analyze()
    assert report.results["main.L0"].decided_by == DECIDED_STATIC_SPECS
    assert report.results["main.L0"].is_commutative


def test_callee_reads_heap_is_never_waived():
    # `acc` is a validated monoid, but it *reads* heap the loop writes:
    # its observations depend on iteration order, so the callee-effects
    # waiver must not extend to the reads-heap blocker.
    source = """
int total = 0;
int[] data = null;

commutative func void acc(int i) {
  total = total + data[i];
}

func void main() {
  data = new int[8];
  int[] out = new int[8];
  for (int i = 0; i < 8; i = i + 1) {
    out[i] = i * 2;
    acc(i);
  }
  print(total);
  print(out[3]);
}
"""
    module = compile_program(source)
    reports = check_annotations(module)
    assert reports["acc"].ok and reports["acc"].kind == "monoid"

    verdicts = StaticCommutativityAnalysis(
        module, specs=default_registry()
    ).analyze()
    verdict = verdicts["main.L0"]
    assert verdict.verdict != PROVEN_COMMUTATIVE
    assert any(e.kind == "callee-reads-heap" for e in verdict.evidence)


def test_unsound_annotation_is_never_trusted():
    # `record` lies about commuting; the prover must keep the
    # callee-effects blocker even with specs enabled.
    source = """
int last = 0;

commutative func void record(int x) {
  last = x;
}

func void main() {
  for (int i = 0; i < 6; i = i + 1) {
    record(i);
  }
  print(last);
}
"""
    verdicts = StaticCommutativityAnalysis(
        compile_program(source), specs=default_registry()
    ).analyze()
    verdict = verdicts["main.L0"]
    assert verdict.verdict != PROVEN_COMMUTATIVE
    assert any(e.kind == "callee-effects" for e in verdict.evidence)
