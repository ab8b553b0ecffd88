"""Deep-cloning of IR containers.

DCA builds several instrumented variants of the same program (an
observe-only golden variant plus one test variant per candidate loop), so
transformations always run on a fresh clone of the pristine module.
"""

from __future__ import annotations

from repro.ir.function import BasicBlock, Function, GlobalVar, LoopInfoMeta, Module


def clone_function(func: Function) -> Function:
    new = Function(func.name, list(func.params), func.return_type)
    new.reg_types = dict(func.reg_types)
    new.commutative = func.commutative
    new.loops = {
        label: LoopInfoMeta(meta.label, meta.line, meta.header, meta.kind)
        for label, meta in func.loops.items()
    }
    for name in func.block_order:
        block = func.blocks[name]
        new_block = new.new_block(name)
        for instr in block.instrs:
            new_block.append(instr.clone())
    new.entry = func.entry
    return new


def clone_module(module: Module) -> Module:
    new = Module(
        structs=dict(module.structs),
        globals={
            name: GlobalVar(gv.name, gv.type, gv.init)
            for name, gv in module.globals.items()
        },
    )
    for func in module.functions.values():
        new.add_function(clone_function(func))
    return new

