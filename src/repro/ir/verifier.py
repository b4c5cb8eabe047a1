"""IR verifier: structural and SSA well-formedness checks.

Run after codegen and after every optimization pass; a malformed function is
a bug in the compiler, and failing here beats failing inside the backend or,
worse, producing wrong query results.
"""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.nodes import Block, Const, Function, Instr, Module, Param, Type


def _reverse_postorder(function: Function) -> list[Block]:
    seen: set[int] = set()
    order: list[Block] = []

    def visit(block: Block) -> None:
        if id(block) in seen:
            return
        seen.add(id(block))
        term = block.terminator
        if term is not None:
            for target in term.targets:
                visit(target)
        order.append(block)

    visit(function.entry)
    order.reverse()
    return order


def compute_dominators(function: Function) -> dict[int, set[int]]:
    """Iterative dominator sets keyed by ``id(block)``."""
    rpo = _reverse_postorder(function)
    all_ids = {id(b) for b in rpo}
    entry = function.entry
    dom: dict[int, set[int]] = {id(b): set(all_ids) for b in rpo}
    dom[id(entry)] = {id(entry)}
    preds = {id(b): [p for p in b.predecessors() if id(p) in all_ids] for b in rpo}
    changed = True
    while changed:
        changed = False
        for block in rpo:
            if block is entry:
                continue
            block_preds = preds[id(block)]
            if not block_preds:
                continue
            new = set.intersection(*(dom[id(p)] for p in block_preds))
            new.add(id(block))
            if new != dom[id(block)]:
                dom[id(block)] = new
                changed = True
    return dom


def verify_function(function: Function) -> dict[int, set[int]]:
    """Raise :class:`IRError` on the first structural problem found;
    returns the dominator sets (:func:`compute_dominators`)."""
    if not function.blocks:
        raise IRError(f"{function.name}: function has no blocks")

    names = [b.name for b in function.blocks]
    if len(set(names)) != len(names):
        raise IRError(f"{function.name}: duplicate block names")

    reachable = {id(b) for b in _reverse_postorder(function)}

    for block in function.blocks:
        if not block.instructions:
            raise IRError(f"{function.name}/{block.name}: empty block")
        term = block.instructions[-1]
        if not term.is_terminator:
            raise IRError(f"{function.name}/{block.name}: missing terminator")
        for instr in block.instructions[:-1]:
            if instr.is_terminator:
                raise IRError(
                    f"{function.name}/{block.name}: terminator %{instr.id} not at block end"
                )
        seen_non_phi = False
        for instr in block.instructions:
            if instr.op == "phi":
                if seen_non_phi:
                    raise IRError(
                        f"{function.name}/{block.name}: phi %{instr.id} after non-phi"
                    )
            else:
                seen_non_phi = True
            if instr.block is not block:
                raise IRError(
                    f"{function.name}/{block.name}: instruction %{instr.id} has stale block link"
                )

        for target in (term.targets or ()):
            if target.function is not function:
                raise IRError(
                    f"{function.name}/{block.name}: branch to foreign block {target.name}"
                )

    # phi incoming blocks must match predecessors exactly (reachable ones)
    for block in function.blocks:
        if id(block) not in reachable:
            continue
        preds = {id(p) for p in block.predecessors() if id(p) in reachable}
        for instr in block.instructions:
            if instr.op != "phi":
                continue
            incoming = {id(b) for _, b in instr.incomings}
            if incoming != preds:
                raise IRError(
                    f"{function.name}/{block.name}: phi %{instr.id} incomings "
                    f"do not match predecessors"
                )

    return _verify_ssa(function, reachable)


def _verify_ssa(function: Function, reachable: set[int]) -> dict[int, set[int]]:
    dom = compute_dominators(function)
    def_site: dict[int, Instr] = {}
    for block in function.blocks:
        for instr in block.instructions:
            if instr.type != Type.VOID:
                if instr.id in def_site:
                    raise IRError(f"{function.name}: duplicate SSA id %{instr.id}")
                def_site[instr.id] = instr

    position = {}
    for block in function.blocks:
        for i, instr in enumerate(block.instructions):
            position[id(instr)] = i

    def check_use(user_block: Block, user_pos: int, value, where: str) -> None:
        if isinstance(value, (Const, Param)):
            return
        if not isinstance(value, Instr):
            raise IRError(f"{function.name}: {where} uses non-value {value!r}")
        if value.type == Type.VOID:
            raise IRError(f"{function.name}: {where} uses void %{value.id}")
        def_block = value.block
        if id(def_block) not in reachable or id(user_block) not in reachable:
            return  # unreachable code is not checked for dominance
        if def_block is user_block:
            if position[id(value)] >= user_pos:
                raise IRError(
                    f"{function.name}: {where} uses %{value.id} before definition"
                )
        elif id(def_block) not in dom[id(user_block)]:
            raise IRError(
                f"{function.name}: {where} not dominated by def of %{value.id}"
            )

    for block in function.blocks:
        for i, instr in enumerate(block.instructions):
            where = f"%{instr.id} in {block.name}"
            if instr.op == "phi":
                for value, pred in instr.incomings:
                    # the incoming value must be available at the end of pred
                    check_use(pred, len(pred.instructions), value, where)
            else:
                for value in instr.args:
                    check_use(block, i, value, where)
    return dom


def verify_module(module: Module) -> None:
    for function in module.functions:
        verify_function(function)
