"""Liveness, loop live-in/live-out and reaching-definitions tests."""

from repro import compile_program
from repro.analysis.defuse import ReachingDefs
from repro.analysis.liveness import Liveness, LoopLiveness
from repro.analysis.loops import build_loop_forest
from repro.ir.instructions import Reg


def main_func(body, decls=""):
    module = compile_program(f"{decls}\nfunc void main() {{ {body} }}")
    return module.functions["main"]


def loop_liveness(func):
    return LoopLiveness(func), build_loop_forest(func)


def test_dead_value_not_live():
    func = main_func("int x = 1; int y = 2; print(y);")
    liveness = Liveness(func)
    assert Reg("x") not in liveness.live_out[func.entry] | liveness.live_in[func.entry]


def test_loop_accumulator_is_live_out_scalar():
    func = main_func(
        "int s = 0; for (int i = 0; i < 4; i = i + 1) { s = s + i; } print(s);"
    )
    ll, forest = loop_liveness(func)
    loop = forest.loops["main.L0"]
    assert Reg("s") in ll.live_out_scalars(loop)


def test_unused_loop_result_not_live_out():
    func = main_func(
        "int s = 0; for (int i = 0; i < 4; i = i + 1) { s = s + i; } print(1);"
    )
    ll, forest = loop_liveness(func)
    loop = forest.loops["main.L0"]
    assert Reg("s") not in ll.live_out_scalars(loop)


def test_reference_defined_before_loop_is_liveout_root():
    func = main_func(
        "int[] a = new int[4];"
        " for (int i = 0; i < 4; i = i + 1) { a[i] = i; }"
        " print(a[0]);"
    )
    ll, forest = loop_liveness(func)
    loop = forest.loops["main.L0"]
    assert Reg("a") in ll.live_out_refs(loop)


def test_live_in_includes_upward_exposed_values():
    func = main_func(
        "int n = 10; int s = 0;"
        " for (int i = 0; i < n; i = i + 1) { s = s + n; } print(s);"
    )
    ll, forest = loop_liveness(func)
    loop = forest.loops["main.L0"]
    live_in = ll.live_in_regs(loop)
    assert Reg("n") in live_in


def test_iterator_final_value_live_out():
    func = main_func(
        "int i = 0; while (i < 7) { i = i + 1; } print(i);"
    )
    ll, forest = loop_liveness(func)
    loop = forest.loops["main.L0"]
    assert Reg("i") in ll.live_out_scalars(loop)


def test_reaching_defs_unique_in_straightline():
    func = main_func("int x = 1; x = 2; print(x);")
    reaching = ReachingDefs(func)
    # The print's use of x must see exactly the second definition.
    for block in func.ordered_blocks():
        for idx, instr in enumerate(block.instrs):
            for reg in instr.uses():
                if reg == Reg("x"):
                    sites = reaching.reaching((block.name, idx), reg)
                    assert len(sites) == 1


def test_reaching_defs_merge_at_join():
    func = main_func(
        "int x = 1; int c = 0;"
        " if (c > 0) { x = 2; } print(x);"
    )
    reaching = ReachingDefs(func)
    found = False
    for block in func.ordered_blocks():
        for idx, instr in enumerate(block.instrs):
            if Reg("x") in instr.uses():
                sites = reaching.reaching((block.name, idx), Reg("x"))
                if len(sites) == 2:
                    found = True
    assert found, "use at join should see both definitions"


def test_loop_carried_def_reaches_header_use():
    func = main_func("int i = 0; while (i < 3) { i = i + 1; }")
    reaching = ReachingDefs(func)
    forest = build_loop_forest(func)
    loop = forest.loops["main.L0"]
    header = func.blocks[loop.header]
    # The header's compare uses i; defs from inside and outside both reach.
    for idx, instr in enumerate(header.instrs):
        if Reg("i") in instr.uses():
            sites = reaching.reaching((loop.header, idx), Reg("i"))
            in_loop = {s for s in sites if s[0] in loop.blocks}
            outside = sites - in_loop
            assert in_loop and outside

