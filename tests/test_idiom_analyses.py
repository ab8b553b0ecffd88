"""Reduction/induction/histogram recognition, alias, purity and affine tests."""

from repro import compile_program
from repro.analysis.affine import AffineContext, cross_iteration_dependence
from repro.analysis.alias import PointsTo
from repro.analysis.loops import build_loop_forest
from repro.analysis.purity import EffectAnalysis
from repro.analysis.reductions import (
    CARRIED_UNKNOWN,
    INDUCTION,
    POINTER_CHASE,
    REDUCTION_ADD,
    REDUCTION_MINMAX_COND,
    REDUCTION_MUL,
    classify_loop,
)
from repro.ir.instructions import Reg


def loop_idioms(source, label="main.L0"):
    module = compile_program(source)
    fname = label.rsplit(".L", 1)[0]
    func = module.functions[fname]
    forest = build_loop_forest(func)
    return classify_loop(func, forest.loops[label]), module


def test_induction_recognized():
    idioms, _ = loop_idioms(
        "func void main() { int s = 0;"
        " for (int i = 0; i < 9; i = i + 1) { s = s + 1; } print(s); }"
    )
    assert idioms.scalars[Reg("i")] == INDUCTION


def test_add_reduction_recognized():
    idioms, _ = loop_idioms(
        "func void main() { int[] a = new int[8]; int s = 0;"
        " for (int i = 0; i < 8; i = i + 1) { s += a[i]; } print(s); }"
    )
    assert idioms.scalars[Reg("s")] == REDUCTION_ADD


def test_mul_reduction_recognized():
    idioms, _ = loop_idioms(
        "func void main() { int p = 1;"
        " for (int i = 1; i < 6; i = i + 1) { p = p * i; } print(p); }"
    )
    assert idioms.scalars[Reg("p")] == REDUCTION_MUL


def test_conditional_max_recognized():
    idioms, _ = loop_idioms(
        "func void main() { int[] a = new int[8]; int m = 0 - 99;"
        " for (int i = 0; i < 8; i = i + 1) {"
        "   if (a[i] > m) { m = a[i]; } } print(m); }"
    )
    assert idioms.scalars[Reg("m")] == REDUCTION_MINMAX_COND


def test_pointer_chase_recognized():
    idioms, _ = loop_idioms(
        """
        struct Node { int v; Node* next; }
        func void main() {
          Node* p = null;
          int s = 0;
          while (p) { s = s + p->v; p = p->next; }
          print(s);
        }
        """
    )
    assert idioms.scalars[Reg("p")] == POINTER_CHASE


def test_escaping_accumulator_is_unknown():
    # A running value with a loop-varying step that feeds other
    # computation is neither an induction nor a reduction.
    idioms, _ = loop_idioms(
        "func void main() { int[] a = new int[8]; int r = 0;"
        " for (int i = 0; i < 8; i = i + 1) { r = r + i; a[i] = r; }"
        " print(a[7]); }"
    )
    assert idioms.scalars[Reg("r")] == CARRIED_UNKNOWN


def test_constant_step_running_value_is_induction():
    # `r = r + 1` is a derived induction even when consumed elsewhere —
    # induction substitution makes the loop parallelizable.
    idioms, _ = loop_idioms(
        "func void main() { int[] a = new int[8]; int r = 0;"
        " for (int i = 0; i < 8; i = i + 1) { r = r + 1; a[i] = r; }"
        " print(a[7]); }"
    )
    assert idioms.scalars[Reg("r")] == INDUCTION


def test_conditional_cursor_is_not_induction():
    idioms, _ = loop_idioms(
        "func void main() { int c = 0;"
        " for (int i = 0; i < 8; i = i + 1) {"
        "   if (i % 2 == 0) { c = c + 1; } } print(c); }"
    )
    assert idioms.scalars[Reg("c")] != INDUCTION


def test_histogram_recognized():
    idioms, _ = loop_idioms(
        "func void main() { int[] h = new int[4]; int[] a = new int[16];"
        " for (int i = 0; i < 16; i = i + 1) { h[a[i] % 4] += 1; }"
        " print(h[0]); }"
    )
    assert len(idioms.histograms) == 1
    assert idioms.histograms[0].op == "+"
    assert len(idioms.histogram_sites) == 2


def test_plain_store_is_not_histogram():
    idioms, _ = loop_idioms(
        "func void main() { int[] a = new int[8];"
        " for (int i = 0; i < 8; i = i + 1) { a[i] = i; } print(a[0]); }"
    )
    assert not idioms.histograms


# -- purity ---------------------------------------------------------------


def test_effect_analysis_transitive():
    module = compile_program(
        """
        int g = 0;
        func int pure_sq(int x) { return x * x; }
        func void writes_global() { g = g + 1; }
        func void indirect() { writes_global(); }
        func void noisy() { print(1); }
        func void main() { indirect(); noisy(); print(pure_sq(2)); }
        """
    )
    effects = EffectAnalysis(module)
    assert effects.of("pure_sq").is_pure
    assert "g" in effects.of("writes_global").globals_written
    assert "g" in effects.of("indirect").globals_written
    assert effects.of("noisy").does_io
    assert effects.of("main").does_io
    assert not effects.of("indirect").does_io


def test_allocation_makes_impure():
    module = compile_program(
        """
        struct N { int v; }
        func N* make() { return new N; }
        func void main() { N* p = make(); print(p->v); }
        """
    )
    effects = EffectAnalysis(module)
    assert effects.of("make").allocates
    assert not effects.of("make").is_pure


# -- alias ---------------------------------------------------------------


def test_distinct_allocations_do_not_alias():
    module = compile_program(
        """
        func void main() {
          int[] a = new int[4];
          int[] b = new int[4];
          int[] c = a;
          a[0] = 1; b[0] = 2; c[0] = 3;
          print(a[0], b[0]);
        }
        """
    )
    pts = PointsTo(module)
    assert not pts.may_alias("main", Reg("a"), Reg("b"))
    assert pts.may_alias("main", Reg("a"), Reg("c"))


def test_alias_flows_through_calls():
    module = compile_program(
        """
        func int[] pick(int[] x) { return x; }
        func void main() {
          int[] a = new int[4];
          int[] b = pick(a);
          b[0] = 1;
          print(a[0]);
        }
        """
    )
    pts = PointsTo(module)
    assert pts.may_alias("main", Reg("a"), Reg("b"))


def test_alias_through_struct_fields():
    module = compile_program(
        """
        struct Box { int[] data; }
        func void main() {
          Box* box = new Box;
          int[] a = new int[4];
          box->data = a;
          int[] b = box->data;
          print(len(b));
        }
        """
    )
    pts = PointsTo(module)
    assert pts.may_alias("main", Reg("a"), Reg("b"))


# -- affine -----------------------------------------------------------------


def affine_ctx(source, label="main.L0"):
    module = compile_program(source)
    func = module.functions["main"]
    return AffineContext(func, build_loop_forest(func).loops[label]), func


def test_affine_subscripts_collected():
    ctx, _ = affine_ctx(
        "func void main() { int[] a = new int[20];"
        " for (int i = 0; i < 10; i = i + 1) { a[2 * i + 1] = i; }"
        " print(a[1]); }"
    )
    accesses = ctx.collect_accesses()
    writes = [acc for acc in accesses if acc.is_write]
    assert len(writes) == 1
    sub = writes[0].subscripts[0]
    assert sub[Reg("i")] == 2
    assert sub.get(None, 0) == 1


def test_identical_subscripts_carry_no_cross_dep():
    ctx, _ = affine_ctx(
        "func void main() { int[] a = new int[10];"
        " for (int i = 0; i < 10; i = i + 1) { a[i] = a[i] + 1; }"
        " print(a[0]); }"
    )
    accesses = ctx.collect_accesses()
    tested = ctx.tested_ivs()
    steps = {r: s for r, (_l, s) in ctx.ivs.items()}
    write = [a for a in accesses if a.is_write][0]
    read = [a for a in accesses if not a.is_write][0]
    assert not cross_iteration_dependence(write, read, tested, steps)


def test_shifted_subscripts_carry_dep():
    ctx, _ = affine_ctx(
        "func void main() { int[] a = new int[12];"
        " for (int i = 1; i < 11; i = i + 1) { a[i] = a[i - 1] + 1; }"
        " print(a[0]); }"
    )
    accesses = ctx.collect_accesses()
    tested = ctx.tested_ivs()
    steps = {r: s for r, (_l, s) in ctx.ivs.items()}
    write = [a for a in accesses if a.is_write][0]
    read = [a for a in accesses if not a.is_write][0]
    assert cross_iteration_dependence(write, read, tested, steps)


def test_nonaffine_subscript_detected():
    ctx, _ = affine_ctx(
        "func void main() { int[] a = new int[16]; int[] idx = new int[16];"
        " for (int i = 0; i < 16; i = i + 1) { a[idx[i]] = i; }"
        " print(a[0]); }"
    )
    accesses = ctx.collect_accesses()
    write = [acc for acc in accesses if acc.is_write][0]
    assert write.subscripts[-1] is None
