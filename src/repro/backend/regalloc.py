"""Graph-colouring register allocation and call-sequence expansion.

Chaitin–Briggs over the virtual registers of one function: liveness per
basic block, an interference graph built in one backward walk per block,
simplify (a node of degree < K leaves the graph; when none is left, the
one with the least spill cost per degree is pushed optimistically) and
select (each popped node takes a register no coloured neighbour holds,
its ``MOV`` partner's when free, so the copy between them vanishes).  A
value's spill cost sums the weights of the instructions touching it:
``8 ** loop depth`` by default, sampled hotness with profile feedback.

The allocatable pool is r7..r14; Register Tagging *reserves* r14, shrinking
the pool — which is exactly how the paper's 2.8 % reservation overhead
arises: fewer registers, more spill traffic.  All registers are caller-saved:
a value live across a call keeps its register, and the call site stores it
to a save slot of the frame before the argument moves and reloads it after
the result move, so a call on a cold arm costs the hot path nothing.  A
kernel call writes only r0 and saves nothing.

Spilled values are accessed through the scratch registers r4/r5, which is
safe because argument registers are only written inside expanded call
sequences, and those never need scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.vm.isa import REG_SP, REG_TAG, Opcode
from repro.backend.minst import MCallSeq, MInst, MLabel, is_vreg

POOL_FULL = tuple(range(7, 15))  # r7..r14
SCRATCH_A = 4
SCRATCH_B = 5
SCRATCH_C = 3  # only needed by SELECT, the one three-source instruction

_BLOCK_ENDS = frozenset({Opcode.JMP, Opcode.BRZ, Opcode.BRNZ, Opcode.RET, Opcode.HALT})


@dataclass
class AllocationStats:
    """Spill statistics, reported by the register-reservation benchmark."""

    vregs: int = 0
    spilled: int = 0
    spill_slots: int = 0
    call_crossings: int = 0


@dataclass
class AllocatedCode:
    """Final function-relative native code plus metadata."""

    code: list[tuple] = field(default_factory=list)
    debug: dict[int, int] = field(default_factory=dict)
    call_fixups: list[tuple[int, str]] = field(default_factory=list)
    stats: AllocationStats = field(default_factory=AllocationStats)
    # vreg -> register, for every vreg that got one
    registers: dict[int, int] = field(default_factory=dict)


def _blocks(items):
    """Basic blocks as ``(start, end)`` item spans, and their successors."""
    bounds = {0, len(items)}
    for i, item in enumerate(items):
        if isinstance(item, MLabel):
            bounds.add(i)
        elif isinstance(item, MInst) and item.op in _BLOCK_ENDS:
            bounds.add(i + 1)
    bounds = sorted(bounds)
    spans = list(zip(bounds, bounds[1:]))
    at_label = {
        items[start].name: k
        for k, (start, _) in enumerate(spans)
        if isinstance(items[start], MLabel)
    }
    succs = []
    for k, (_, end) in enumerate(spans):
        last = items[end - 1]
        op = last.op if isinstance(last, MInst) else None
        if op == Opcode.JMP:
            succs.append([at_label[last.a]])
        elif op in (Opcode.RET, Opcode.HALT):
            succs.append([])
        else:
            taken = [at_label[last.b]] if op in (Opcode.BRZ, Opcode.BRNZ) else []
            succs.append(taken + ([k + 1] if k + 1 < len(spans) else []))
    return spans, succs


def _live_out(touches, spans, succs):
    """Live-out vreg set per block, by backward iterative dataflow."""
    gen, kill = [], []
    for start, end in spans:
        used = set()
        for uses, defs in reversed(touches[start:end]):
            used = used.difference(defs).union(uses)
        gen.append(used)
        kill.append({d for _, defs in touches[start:end] for d in defs})
    live_in = [set(g) for g in gen]
    live_out = [set() for _ in spans]
    changed = True
    while changed:
        changed = False
        for k in range(len(spans) - 1, -1, -1):
            out = set().union(*(live_in[s] for s in succs[k]))
            if out != live_out[k]:
                live_out[k] = out
                live_in[k] = gen[k] | (out - kill[k])
                changed = True
    return live_out


def _interference(items):
    """The interference graph, and the values live across each non-kernel
    call (by item index): one backward walk per block; each definition
    interferes with everything live after it but the source of a copy."""
    touches = [
        (item.uses(), item.defs()) if isinstance(item, (MInst, MCallSeq)) else ((), ())
        for item in items
    ]
    spans, succs = _blocks(items)
    live_out = _live_out(touches, spans, succs)
    graph = {v: set() for uses, defs in touches for v in (*uses, *defs)}
    across: dict[int, set[int]] = {}
    for (start, end), live in zip(spans, live_out):
        live = set(live)
        for i in range(end - 1, start - 1, -1):
            item = items[i]
            uses, defs = touches[i]
            if isinstance(item, MCallSeq) and not item.is_kernel:
                across[i] = live.difference(defs)
            copied = item.b if isinstance(item, MInst) and item.op == Opcode.MOV else None
            for d in defs:
                for v in live:
                    if v != d and v != copied:
                        graph[d].add(v)
                        graph[v].add(d)
            live.difference_update(defs)
            live.update(uses)
    return graph, across


def _vreg_weights(items, weights: dict[int, float]) -> dict[int, float]:
    """Spill cost per vreg: the summed ``weights`` (by ir_id) of the
    instructions touching it."""
    costs: dict[int, float] = {}
    for item in items:
        if not isinstance(item, (MInst, MCallSeq)) or item.ir_id is None:
            continue
        weight = weights.get(item.ir_id)
        if not weight:
            continue
        for vreg in set(item.uses()) | set(item.defs()):
            costs[vreg] = costs.get(vreg, 0.0) + weight
    return costs


def _colour(graph, pool, costs, partners) -> dict[int, int]:
    """Simplify, then select; a node absent from the result is spilled."""
    k = len(pool)
    degree = {v: len(edges) for v, edges in graph.items()}
    remaining = set(graph)
    low = sorted(v for v in graph if degree[v] < k)
    stack = []
    while remaining:
        if low:
            node = low.pop()
        else:  # every node is significant: push the cheapest, optimistically
            node = min(remaining, key=lambda v: (costs.get(v, 0.0) / degree[v], v))
        remaining.remove(node)
        stack.append(node)
        for v in graph[node]:
            if v in remaining:
                degree[v] -= 1
                if degree[v] == k - 1:
                    low.append(v)
    colour: dict[int, int] = {}
    for node in reversed(stack):
        taken = {colour[v] for v in graph[node] if v in colour}
        free = [r for r in pool if r not in taken]
        if free:
            preferred = [colour[p] for p in partners.get(node, ()) if colour.get(p) in free]
            colour[node] = preferred[0] if preferred else free[0]
    return colour


def allocate_function(
    items: list, reserve_tag_register: bool, weights: dict[int, float]
) -> AllocatedCode:
    """Allocate registers and produce final function-relative code.

    ``weights`` maps ir_id to what one touch by that instruction costs a
    spilled value: ``8 ** loop depth``, or the sampled hotness of profile
    feedback.
    """
    pool = tuple(r for r in POOL_FULL if not (reserve_tag_register and r == REG_TAG))

    graph, across = _interference(items)
    partners: dict[int, list[int]] = {}
    for item in items:
        if isinstance(item, MInst) and item.op == Opcode.MOV:
            if is_vreg(item.a) and is_vreg(item.b):
                partners.setdefault(item.a, []).append(item.b)
                partners.setdefault(item.b, []).append(item.a)
    registers = _colour(graph, pool, _vreg_weights(items, weights), partners)
    slot_of = {v: k for k, v in enumerate(sorted(set(graph) - set(registers)))}
    spilled = set(slot_of)
    stats = AllocationStats(
        vregs=len(graph), spilled=len(spilled), spill_slots=len(slot_of),
        call_crossings=len(set().union(*across.values())),
    )
    # a call site saves its live registers to the slots past the spills
    saves_at = {
        i: [
            (registers[v], (len(slot_of) + k) * 8)
            for k, v in enumerate(sorted(live - spilled))
        ]
        for i, live in across.items()
    }

    def location(vreg):
        if vreg in slot_of:
            return ("slot", slot_of[vreg] * 8)
        return ("reg", registers[vreg])

    frame = (len(slot_of) + max(map(len, saves_at.values()), default=0)) * 8

    # -- rewrite ----------------------------------------------------------

    out: list = []  # mix of MLabel markers and (tuple, ir_id)
    if frame:  # the prologue belongs to the entry block's first instruction
        entry_ir = next(i.ir_id for i in items if not isinstance(i, MLabel))
        out.append(((Opcode.ADDI, REG_SP, REG_SP, -frame), entry_ir))

    def read_operand(operand, scratch):
        """Return a physical register holding ``operand``."""
        if not is_vreg(operand):
            return operand  # already physical
        kind, value = location(operand)
        if kind == "reg":
            return value
        out.append(((Opcode.LOAD, scratch, REG_SP, value), current_ir))
        return scratch

    for index, item in enumerate(items):
        if isinstance(item, MLabel):
            out.append(item)
            continue
        if isinstance(item, MCallSeq):
            current_ir = item.ir_id
            saves = saves_at.get(index, ())
            for reg, offset in saves:
                out.append(((Opcode.STORE, REG_SP, reg, offset), current_ir))
            for i, arg in enumerate(item.args):
                if isinstance(arg, tuple) and arg[0] == "imm":
                    out.append(((Opcode.MOVI, i, arg[1], 0), current_ir))
                else:
                    kind, value = location(arg)
                    if kind == "reg":
                        out.append(((Opcode.MOV, i, value, 0), current_ir))
                    else:
                        out.append(((Opcode.LOAD, i, REG_SP, value), current_ir))
            if item.is_kernel:
                out.append(((Opcode.KCALL, item.target, 0, 0), current_ir))
            else:
                out.append((("CALL", item.target), current_ir))
            if item.dst is not None:
                kind, value = location(item.dst)
                if kind == "reg":
                    out.append(((Opcode.MOV, value, 0, 0), current_ir))
                else:
                    out.append(((Opcode.STORE, REG_SP, 0, value), current_ir))
            for reg, offset in saves:
                out.append(((Opcode.LOAD, reg, REG_SP, offset), current_ir))
            continue

        ins = item
        current_ir = ins.ir_id
        op = ins.op

        if op == Opcode.RET and frame:
            out.append(((Opcode.ADDI, REG_SP, REG_SP, frame), current_ir))
            out.append(((Opcode.RET, 0, 0, 0), current_ir))
            continue

        if op == Opcode.STORE:
            base = read_operand(ins.a, SCRATCH_A)
            value = read_operand(ins.b, SCRATCH_B)
            out.append(((Opcode.STORE, base, value, ins.c), current_ir))
            continue
        if op in (Opcode.BRZ, Opcode.BRNZ):
            cond = read_operand(ins.a, SCRATCH_A)
            out.append(((op, cond, ins.b, 0), current_ir))
            continue
        if op == Opcode.JMP:
            out.append(((op, ins.a, 0, 0), current_ir))
            continue
        if op in (Opcode.RET, Opcode.NOP, Opcode.HALT):
            out.append(((op, 0, 0, 0), current_ir))
            continue

        if op == Opcode.SELECT:
            cond = read_operand(ins.b, SCRATCH_A)
            rt_in, rf_in = ins.c
            # read both candidate values; they may need the second scratch
            rt = read_operand(rt_in, SCRATCH_B)
            rf = read_operand(rf_in, SCRATCH_C)
            dst_kind, dst_value = (
                location(ins.a) if is_vreg(ins.a) else ("reg", ins.a)
            )
            if dst_kind == "reg":
                out.append(((op, dst_value, cond, (rt, rf)), current_ir))
            else:
                out.append(((op, SCRATCH_A, cond, (rt, rf)), current_ir))
                out.append(((Opcode.STORE, REG_SP, SCRATCH_A, dst_value), current_ir))
            continue

        # generic forms: a = dst (if register-writing), b/c sources
        uses_b = is_vreg(ins.b) and op != Opcode.MOVI
        b = read_operand(ins.b, SCRATCH_A) if uses_b else ins.b
        c = ins.c
        if op not in (Opcode.MOVI, Opcode.MOV, Opcode.LOAD, Opcode.ADDI,
                      Opcode.MULI, Opcode.ANDI, Opcode.SHLI, Opcode.SHRI,
                      Opcode.XORI, Opcode.CMPEQI, Opcode.CMPNEI, Opcode.CMPLTI,
                      Opcode.CMPLEI, Opcode.CMPGTI, Opcode.CMPGEI,
                      Opcode.CVTIF, Opcode.CVTFI):
            if is_vreg(ins.c):
                c = read_operand(ins.c, SCRATCH_B)

        if is_vreg(ins.a):
            dst_kind, dst_value = location(ins.a)
        else:
            dst_kind, dst_value = "reg", ins.a
        if dst_kind == "reg":
            target = dst_value
            rewritten = (op, target, b, c)
            if op == Opcode.MOV and target == b:
                continue  # coalesced copy
            out.append((rewritten, current_ir))
        elif op == Opcode.MOV:  # a copy into a slot is a store
            out.append(((Opcode.STORE, REG_SP, b, dst_value), current_ir))
        else:
            out.append(((op, SCRATCH_A, b, c), current_ir))
            out.append(((Opcode.STORE, REG_SP, SCRATCH_A, dst_value), current_ir))

    # -- resolve labels to function-relative indices ----------------------

    label_index: dict[str, int] = {}
    counter = 0
    for entry in out:
        if isinstance(entry, MLabel):
            label_index[entry.name] = counter
        else:
            counter += 1

    result = AllocatedCode(stats=stats, registers=registers)
    for entry in out:
        if isinstance(entry, MLabel):
            continue
        (raw, ir_id) = entry
        if raw[0] == "CALL":
            result.call_fixups.append((len(result.code), raw[1]))
            raw = (Opcode.CALL, 0, 0, 0)
        else:
            op = raw[0]
            if op == Opcode.JMP:
                raw = (op, label_index[raw[1]], 0, 0)
            elif op in (Opcode.BRZ, Opcode.BRNZ):
                raw = (op, raw[1], label_index[raw[2]], 0)
        if ir_id is not None:
            result.debug[len(result.code)] = ir_id
        result.code.append(raw)
    return result
