"""Linear-scan register allocation and call-sequence expansion.

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

from repro.errors import BackendError
from repro.vm.isa import REG_SP, REG_TAG, Opcode
from repro.backend.minst import MCallSeq, MInst, MLabel, is_vreg

POOL_FULL = tuple(range(7, 15))  # r7..r14
SCRATCH_A = 4
SCRATCH_B = 5
SCRATCH_C = 3  # only needed by SELECT, the one three-source instruction


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


def _successors(items, index, label_pos):
    item = items[index]
    if isinstance(item, MInst):
        if item.op == Opcode.JMP:
            return [label_pos[item.a]]
        if item.op in (Opcode.BRZ, Opcode.BRNZ):
            return [label_pos[item.b], index + 1]
        if item.op in (Opcode.RET, Opcode.HALT):
            return []
    return [index + 1] if index + 1 < len(items) else []


def _liveness(items):
    """Per-item live-out vreg sets via backward iterative dataflow."""
    label_pos = {
        item.name: i for i, item in enumerate(items) if isinstance(item, MLabel)
    }
    n = len(items)
    succs = [_successors(items, i, label_pos) for i in range(n)]
    uses = []
    defs = []
    for item in items:
        if isinstance(item, (MInst, MCallSeq)):
            uses.append(set(item.uses()))
            defs.append(set(item.defs()))
        else:
            uses.append(set())
            defs.append(set())

    live_in = [set() for _ in range(n)]
    live_out = [set() for _ in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n - 1, -1, -1):
            out = set()
            for s in succs[i]:
                out |= live_in[s]
            new_in = uses[i] | (out - defs[i])
            if out != live_out[i] or new_in != live_in[i]:
                live_out[i] = out
                live_in[i] = new_in
                changed = True
    return live_in, live_out


def _intervals(items, live_in, live_out):
    intervals: dict[int, list[int]] = {}

    def touch(vreg, pos):
        interval = intervals.get(vreg)
        if interval is None:
            intervals[vreg] = [pos, pos]
        else:
            if pos < interval[0]:
                interval[0] = pos
            if pos > interval[1]:
                interval[1] = pos

    for i, item in enumerate(items):
        if isinstance(item, (MInst, MCallSeq)):
            for v in item.uses():
                touch(v, i)
            for v in item.defs():
                touch(v, i)
        for v in live_in[i]:
            touch(v, i)
        for v in live_out[i]:
            touch(v, i)
    return intervals


def _vreg_weights(items, hotness: dict[int, float]) -> dict[int, float]:
    """Spill cost per vreg: summed hotness of the instructions touching it."""
    weights: dict[int, float] = {}
    for item in items:
        if not isinstance(item, (MInst, MCallSeq)) or item.ir_id is None:
            continue
        weight = hotness.get(item.ir_id)
        if not weight:
            continue
        for vreg in set(item.uses()) | set(item.defs()):
            weights[vreg] = weights.get(vreg, 0.0) + weight
    return weights


def allocate_function(
    items: list,
    reserve_tag_register: bool = False,
    hotness: dict[int, float] | None = None,
) -> AllocatedCode:
    """Allocate registers and produce final function-relative code.

    ``hotness`` (profile feedback, ir_id -> sample weight) switches the
    spill heuristic from furthest-end to cheapest-to-spill: among the
    candidates, the vreg touched by the coldest instructions is spilled —
    keeping profiled-hot values in registers.
    """
    pool = tuple(r for r in POOL_FULL if not (reserve_tag_register and r == REG_TAG))

    live_in, live_out = _liveness(items)
    intervals = _intervals(items, live_in, live_out)
    weights = _vreg_weights(items, hotness) if hotness else None
    # the values each call site saves: live across it, exactly
    across = {
        i: live_out[i] - set(item.defs())
        for i, item in enumerate(items)
        if isinstance(item, MCallSeq) and not item.is_kernel
    }

    stats = AllocationStats(vregs=len(intervals))
    stats.call_crossings = len(set().union(*across.values()))

    spilled: set[int] = set()
    order = sorted(intervals, key=lambda v: intervals[v][0])
    assignment: dict[int, tuple[str, int]] = {}
    active: list[int] = []  # vregs currently holding a register
    free = list(pool)
    for vreg in order:
        start, end = intervals[vreg]
        for other in list(active):
            if intervals[other][1] < start:
                active.remove(other)
                free.append(assignment[other][1])
        if free:
            reg = free.pop()
            assignment[vreg] = ("reg", reg)
            active.append(vreg)
        elif weights is not None:
            # hotness-weighted choice: spill the coldest candidate
            # (ties broken toward the furthest interval end, matching the
            # default heuristic)
            def spill_cost(v, v_end):
                return (weights.get(v, 0.0), -v_end)

            victim = min(active, key=lambda v: spill_cost(v, intervals[v][1]))
            if spill_cost(victim, intervals[victim][1]) < spill_cost(vreg, end):
                assignment[vreg] = assignment[victim]
                assignment[victim] = ("spill", 0)
                spilled.add(victim)
                active.remove(victim)
                active.append(vreg)
            else:
                assignment[vreg] = ("spill", 0)
                spilled.add(vreg)
        else:
            victim = max(active, key=lambda v: intervals[v][1])
            if intervals[victim][1] > end:
                assignment[vreg] = assignment[victim]
                assignment[victim] = ("spill", 0)
                spilled.add(victim)
                active.remove(victim)
                active.append(vreg)
            else:
                assignment[vreg] = ("spill", 0)
                spilled.add(vreg)

    slot_of: dict[int, int] = {}
    for vreg in sorted(spilled):
        slot_of[vreg] = len(slot_of)
    stats.spilled = len(spilled)
    stats.spill_slots = len(slot_of)
    # a call site saves its live registers to the slots past the spills
    saves_at = {
        i: [
            (assignment[v][1], (len(slot_of) + k) * 8)
            for k, v in enumerate(sorted(live - spilled))
        ]
        for i, live in across.items()
    }

    def location(vreg):
        if vreg in slot_of:
            return ("slot", slot_of[vreg] * 8)
        kind, reg = assignment[vreg]
        if kind != "reg":
            raise BackendError(f"vreg {vreg} has no location")
        return ("reg", reg)

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

    result = AllocatedCode(stats=stats)
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
