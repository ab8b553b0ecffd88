"""Dominators, postdominators, loop forest and control dependence."""

from repro import compile_program
from repro.analysis.cfg import compute_dominators, dominates, reverse_postorder
from repro.analysis.loops import (
    build_loop_forest,
    function_analyses,
    invalidate_loops,
)
from repro.analysis.postdom import ControlDependence, PostDominators


def main_func(body, decls=""):
    module = compile_program(f"{decls}\nfunc void main() {{ {body} }}")
    return module.functions["main"]


def test_entry_dominates_everything():
    func = main_func(
        "int x = 0; if (x > 0) { x = 1; } else { x = 2; } print(x);"
    )
    idom = compute_dominators(func)
    for name in func.block_order:
        assert dominates(idom, func.entry, name)


def test_branch_targets_dominated_by_branch_block():
    func = main_func("int x = 0; if (x > 0) { x = 1; }")
    idom = compute_dominators(func)
    # The then-block's immediate dominator is the entry (which branches).
    then_blocks = [n for n in func.block_order if n.startswith("if.then")]
    assert then_blocks
    assert idom[then_blocks[0]] == func.entry


def test_reverse_postorder_starts_at_entry():
    func = main_func("int x = 0; while (x < 3) { x = x + 1; }")
    rpo = reverse_postorder(func)
    assert rpo[0] == func.entry
    assert set(rpo) == set(func.block_order)


def test_loop_forest_finds_source_loops():
    func = main_func(
        "for (int i = 0; i < 2; i = i + 1) {"
        "  for (int j = 0; j < 2; j = j + 1) { }"
        "}"
    )
    forest = build_loop_forest(func)
    assert set(forest.loops) == {"main.L0", "main.L1"}
    inner = forest.loops["main.L1"]
    outer = forest.loops["main.L0"]
    assert inner.parent is outer
    assert inner in outer.children
    assert inner.depth == 1 and outer.depth == 0


def test_loop_blocks_nest_properly():
    func = main_func(
        "for (int i = 0; i < 2; i = i + 1) {"
        "  for (int j = 0; j < 2; j = j + 1) { }"
        "}"
    )
    forest = build_loop_forest(func)
    inner = forest.loops["main.L1"]
    outer = forest.loops["main.L0"]
    assert inner.blocks < outer.blocks


def test_while_loop_has_header_and_latch():
    func = main_func("int x = 5; while (x > 0) { x = x - 1; }")
    forest = build_loop_forest(func)
    loop = forest.loops["main.L0"]
    assert loop.header in loop.blocks
    assert loop.latches
    assert all(l in loop.blocks for l in loop.latches)


def test_exit_edges_leave_the_loop():
    func = main_func(
        "for (int i = 0; i < 3; i = i + 1) { if (i == 2) { break; } }"
    )
    forest = build_loop_forest(func)
    loop = forest.loops["main.L0"]
    edges = loop.exit_edges(func)
    assert len(edges) == 2  # normal exit + break
    for src, dst in edges:
        assert src in loop.blocks
        assert dst not in loop.blocks


def test_innermost_mapping():
    func = main_func(
        "for (int i = 0; i < 2; i = i + 1) {"
        "  for (int j = 0; j < 2; j = j + 1) { }"
        "  int z = i;"
        "}"
    )
    forest = build_loop_forest(func)
    inner = forest.loops["main.L1"]
    assert forest.innermost[inner.header] is inner
    chain = forest.loop_chain(inner.header)
    assert [l.label for l in chain] == ["main.L0", "main.L1"]


def test_loop_forest_cache_and_invalidation():
    func = main_func("while (true) { break; }")
    first = build_loop_forest(func)
    assert build_loop_forest(func) is first
    invalidate_loops(func)
    assert build_loop_forest(func) is not first


def test_function_analyses_memo_and_invalidation():
    func = main_func("int x = 3; while (x > 0) { x = x - 1; }")

    def built(memo):
        return (memo.forest, memo.reaching, memo.liveness, memo.controldep)

    memo = function_analyses(func)
    first = built(memo)
    assert function_analyses(func) is memo
    assert all(a is b for a, b in zip(built(memo), first))
    assert build_loop_forest(func) is memo.forest
    invalidate_loops(func)
    assert function_analyses(func) is not memo
    fresh = built(function_analyses(func))
    assert all(a is not b for a, b in zip(fresh, first))


def test_postdominators_exit_blocks():
    func = main_func("int x = 0; if (x > 0) { x = 1; } print(x);")
    pd = PostDominators(func)
    merge = [n for n in func.block_order if n.startswith("if.end")][0]
    assert pd.postdominates(merge, func.entry)


def test_control_dependence_of_branch_arms():
    func = main_func("int x = 0; if (x > 0) { x = 1; } else { x = 2; }")
    cd = ControlDependence(func)
    then_block = [n for n in func.block_order if n.startswith("if.then")][0]
    else_block = [n for n in func.block_order if n.startswith("if.else")][0]
    assert func.entry in cd.controlling_blocks(then_block)
    assert func.entry in cd.controlling_blocks(else_block)
    merge = [n for n in func.block_order if n.startswith("if.end")][0]
    assert func.entry not in cd.controlling_blocks(merge)


def test_loop_body_control_dependent_on_header():
    func = main_func("int x = 3; while (x > 0) { x = x - 1; }")
    cd = ControlDependence(func)
    forest = build_loop_forest(func)
    loop = forest.loops["main.L0"]
    body = [n for n in loop.blocks if n != loop.header][0]
    assert loop.header in cd.controlling_blocks(body)
