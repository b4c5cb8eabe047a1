"""Instruction selection: SSA IR -> virtual-register machine code.

One IR block becomes one labelled region; phis are destructed into parallel
copies at predecessor block ends; constants are folded into immediate
instruction forms where the ISA has them, and the constant part of a
``gep`` whose only users are load and store addresses in its own block into
their ``[base+imm]`` operand; no jump goes to the next block.  Every emitted
machine instruction records the id of the IR instruction it implements —
this is the debug information (the DWARF analogue) the profiler uses for
the final native->IR mapping step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BackendError
from repro.ir.nodes import Block, Const, Function, Instr, Param, Type, Value
from repro.vm.isa import REG_TAG, TAG_TASK_MASK, Opcode
from repro.backend.minst import VREG_BASE, MCallSeq, MInst, MLabel

_BINOP_TO_OPCODE = {
    "add": Opcode.ADD,
    "sub": Opcode.SUB,
    "mul": Opcode.MUL,
    "sdiv": Opcode.SDIV,
    "srem": Opcode.SREM,
    "and": Opcode.AND,
    "or": Opcode.OR,
    "xor": Opcode.XOR,
    "shl": Opcode.SHL,
    "shr": Opcode.SHR,
    "rotr": Opcode.ROTR,
    "fdiv": Opcode.FDIV,
    "crc32": Opcode.CRC32,
    "min": Opcode.MIN,
    "max": Opcode.MAX,
    "cmpeq": Opcode.CMPEQ,
    "cmpne": Opcode.CMPNE,
    "cmplt": Opcode.CMPLT,
    "cmple": Opcode.CMPLE,
    "cmpgt": Opcode.CMPGT,
    "cmpge": Opcode.CMPGE,
}

# ops with an immediate form for a constant right-hand side
_IMM_FORM = {
    "add": Opcode.ADDI,
    "mul": Opcode.MULI,
    "and": Opcode.ANDI,
    "shl": Opcode.SHLI,
    "shr": Opcode.SHRI,
    "xor": Opcode.XORI,
    "cmpeq": Opcode.CMPEQI,
    "cmpne": Opcode.CMPNEI,
    "cmplt": Opcode.CMPLTI,
    "cmple": Opcode.CMPLEI,
    "cmpgt": Opcode.CMPGTI,
    "cmpge": Opcode.CMPGEI,
}


@dataclass
class IselResult:
    """Virtual-register code for one function, ready for allocation."""

    items: list = field(default_factory=list)
    param_vregs: list[int] = field(default_factory=list)
    next_vreg: int = VREG_BASE


class _Isel:
    def __init__(
        self,
        function: Function,
        tagging_enabled: bool,
        invert_branches: set[int] | frozenset = frozenset(),
        qualify_tags: bool = False,
    ):
        self.function = function
        self.tagging_enabled = tagging_enabled
        self.invert_branches = invert_branches
        self.qualify_tags = qualify_tags
        self.items: list = []
        self.next_vreg = VREG_BASE
        self.value_vreg: dict[int, int] = {}
        self.param_vreg: dict[int, int] = {}
        self.phi_vreg: dict[int, int] = {}
        self.folded = _folded_geps(function)

    def fresh(self) -> int:
        v = self.next_vreg
        self.next_vreg += 1
        return v

    def emit(self, op, a=0, b=0, c=0, ir_id=None) -> None:
        self.items.append(MInst(op, a, b, c, ir_id=ir_id))

    # -- operand handling --------------------------------------------------

    def vreg_of(self, value: Value, ir_id: int | None) -> int:
        """Return a vreg holding ``value``, materializing constants."""
        if isinstance(value, Const):
            v = self.fresh()
            self.emit(Opcode.MOVI, v, value.value, ir_id=ir_id)
            return v
        if isinstance(value, Param):
            return self.param_vreg[value.index]
        if isinstance(value, Instr):
            if value.op == "phi":
                return self.phi_vreg[value.id]
            try:
                return self.value_vreg[value.id]
            except KeyError:
                raise BackendError(
                    f"{self.function.name}: use of %{value.id} before selection"
                ) from None
        raise BackendError(f"cannot select operand {value!r}")

    def address(self, ptr: Value, ir_id: int) -> tuple[int, int]:
        """``(vreg, immediate)`` of a load or store address."""
        if isinstance(ptr, Instr) and ptr.id in self.folded:
            return self.folded[ptr.id]
        return self.vreg_of(ptr, ir_id), 0

    # -- main walk ----------------------------------------------------------

    def run(self) -> IselResult:
        fn = self.function
        # params arrive in r0..r5; copy them into vregs up front, under the
        # entry block's first instruction (a prologue has no IR of its own)
        param_vregs = []
        for param in fn.params:
            v = self.fresh()
            self.param_vreg[param.index] = v
            param_vregs.append(v)
        for i, v in enumerate(self.param_vreg.values()):
            if i > 5:
                raise BackendError("more than 6 parameters are not supported")
            self.emit(Opcode.MOV, v, i, ir_id=fn.blocks[0].instructions[0].id)

        # pre-assign vregs for all phis (referenced across blocks)
        for block in fn.blocks:
            for instr in block.instructions:
                if instr.op == "phi":
                    self.phi_vreg[instr.id] = self.fresh()

        # (the entry block is first: the parameter copies fall into it)
        for block, self.next_block in zip(fn.blocks, [*fn.blocks[1:], None]):
            self.items.append(MLabel(block.name))
            for instr in block.instructions:
                self.select(block, instr)

        return IselResult(
            items=self.items,
            param_vregs=param_vregs,
            next_vreg=self.next_vreg,
        )

    def jump(self, target: Block, ir_id: int) -> None:
        """A jump to ``target``; none to the next block: control falls through."""
        if target is not self.next_block:
            self.emit(Opcode.JMP, target.name, ir_id=ir_id)

    def emit_phi_copies(self, pred: Block, ir_id: int) -> None:
        """Parallel copies for all phis of all successors of ``pred``."""
        term = pred.terminator
        copies: list[tuple[int, Value]] = []
        for target in term.targets:
            for instr in target.instructions:
                if instr.op != "phi":
                    break
                for value, inc_block in instr.incomings:
                    if inc_block is pred:
                        copies.append((self.phi_vreg[instr.id], value))
        if not copies:
            return
        if len(copies) == 1:
            dst, value = copies[0]
            self.emit_copy(dst, value, ir_id)
            return
        # read all sources into temps first: a correct parallel copy even
        # when a phi vreg appears as another phi's incoming value
        temps = []
        for _, value in copies:
            tmp = self.fresh()
            self.emit_copy(tmp, value, ir_id)
            temps.append(tmp)
        for (dst, _), tmp in zip(copies, temps):
            self.emit(Opcode.MOV, dst, tmp, ir_id=ir_id)

    def emit_copy(self, dst: int, value: Value, ir_id: int) -> None:
        if isinstance(value, Const):
            self.emit(Opcode.MOVI, dst, value.value, ir_id=ir_id)
        else:
            self.emit(Opcode.MOV, dst, self.vreg_of(value, ir_id), ir_id=ir_id)

    def select(self, block: Block, instr: Instr) -> None:  # noqa: C901
        op = instr.op
        iid = instr.id
        if op == "phi":
            return  # handled by predecessor copies
        if op == "nop":
            return

        if op in _BINOP_TO_OPCODE:
            a, b = instr.args
            dst = self.fresh()
            if (
                isinstance(b, Const)
                and op in _IMM_FORM
                and isinstance(b.value, int)
            ):
                imm = b.value
                if op in ("shl", "shr"):
                    imm &= 63  # the shift field is 6 bits, as on hardware
                self.emit(_IMM_FORM[op], dst, self.vreg_of(a, iid), imm, ir_id=iid)
            elif op == "sub" and isinstance(b, Const) and isinstance(b.value, int):
                self.emit(Opcode.ADDI, dst, self.vreg_of(a, iid), -b.value, ir_id=iid)
            else:
                va = self.vreg_of(a, iid)
                vb = self.vreg_of(b, iid)
                self.emit(_BINOP_TO_OPCODE[op], dst, va, vb, ir_id=iid)
            self.value_vreg[iid] = dst
            return

        if op == "gep":
            base = self.vreg_of(instr.args[0], iid)
            index = instr.args[1] if len(instr.args) > 1 else Const(0)
            dst = self.fresh()
            if isinstance(index, Const):
                offset = index.value * instr.scale + instr.offset
                if iid in self.folded:  # each user's immediate
                    self.folded[iid] = (base, offset)
                    return
                self.emit(Opcode.ADDI, dst, base, offset, ir_id=iid)
                self.value_vreg[iid] = dst
                return
            vi = self.vreg_of(index, iid)
            scale = instr.scale
            if scale == 1:
                scaled = vi
            elif scale & (scale - 1) == 0:
                scaled = self.fresh()
                self.emit(Opcode.SHLI, scaled, vi, scale.bit_length() - 1, ir_id=iid)
            else:
                scaled = self.fresh()
                self.emit(Opcode.MULI, scaled, vi, scale, ir_id=iid)
            if iid in self.folded:
                self.emit(Opcode.ADD, dst, base, scaled, ir_id=iid)
                self.folded[iid] = (dst, instr.offset)
            elif instr.offset:
                summed = self.fresh()
                self.emit(Opcode.ADD, summed, base, scaled, ir_id=iid)
                self.emit(Opcode.ADDI, dst, summed, instr.offset, ir_id=iid)
            else:
                self.emit(Opcode.ADD, dst, base, scaled, ir_id=iid)
            self.value_vreg[iid] = dst
            return

        if op == "load":
            dst = self.fresh()
            base, imm = self.address(instr.args[0], iid)
            self.emit(Opcode.LOAD, dst, base, imm, ir_id=iid)
            self.value_vreg[iid] = dst
            return

        if op == "store":
            ptr, value = instr.args
            base, imm = self.address(ptr, iid)
            self.emit(
                Opcode.STORE, base, self.vreg_of(value, iid), imm, ir_id=iid
            )
            return

        if op == "select":
            cond, tval, fval = instr.args
            dst = self.fresh()
            self.emit(
                Opcode.SELECT,
                dst,
                self.vreg_of(cond, iid),
                (self.vreg_of(tval, iid), self.vreg_of(fval, iid)),
                ir_id=iid,
            )
            self.value_vreg[iid] = dst
            return

        if op == "sitofp":
            dst = self.fresh()
            self.emit(Opcode.CVTIF, dst, self.vreg_of(instr.args[0], iid), ir_id=iid)
            self.value_vreg[iid] = dst
            return

        if op == "fptosi":
            dst = self.fresh()
            self.emit(Opcode.CVTFI, dst, self.vreg_of(instr.args[0], iid), ir_id=iid)
            self.value_vreg[iid] = dst
            return

        if op == "settag":
            if not self.tagging_enabled:
                return
            dst = self.fresh()
            self.emit(Opcode.MOV, dst, REG_TAG, ir_id=iid)
            tag = instr.args[0]
            if isinstance(tag, Const):
                if self.qualify_tags:
                    # preserve the query-id half installed by the serve
                    # scheduler: clear the task half, then XOR the new
                    # task id into the (now zero) low 32 bits
                    self.emit(
                        Opcode.ANDI, REG_TAG, REG_TAG, ~TAG_TASK_MASK,
                        ir_id=iid,
                    )
                    self.emit(
                        Opcode.XORI, REG_TAG, REG_TAG, tag.value, ir_id=iid
                    )
                else:
                    self.emit(Opcode.MOVI, REG_TAG, tag.value, ir_id=iid)
            else:
                # restoring a saved tag: the saved value already carries
                # the full (query-id, task) pair, MOV preserves both halves
                self.emit(Opcode.MOV, REG_TAG, self.vreg_of(tag, iid), ir_id=iid)
            self.value_vreg[iid] = dst
            return

        if op in ("call", "kcall"):
            args = []
            for arg in instr.args:
                if isinstance(arg, Const) and isinstance(arg.value, int):
                    args.append(("imm", arg.value))
                else:
                    args.append(self.vreg_of(arg, iid))
            dst = self.fresh() if instr.type != Type.VOID else None
            self.items.append(
                MCallSeq(
                    target=instr.offset if op == "kcall" else instr.callee,
                    args=args,
                    dst=dst,
                    is_kernel=(op == "kcall"),
                    ir_id=iid,
                )
            )
            if dst is not None:
                self.value_vreg[iid] = dst
            return

        if op == "br":
            self.emit_phi_copies(block, iid)
            self.jump(instr.targets[0], iid)
            return

        if op == "condbr":
            cond = self.vreg_of(instr.args[0], iid)
            self.emit_phi_copies(block, iid)
            if iid in self.invert_branches:
                # profile feedback says the condition is usually false:
                # branch on the cold (true) edge so the hot edge falls
                # through to the cheaper JMP (1 vs 2 branch instructions
                # retired on the common path)
                self.emit(Opcode.BRZ, cond, instr.targets[1].name, ir_id=iid)
                self.jump(instr.targets[0], iid)
            else:
                self.emit(Opcode.BRNZ, cond, instr.targets[0].name, ir_id=iid)
                self.jump(instr.targets[1], iid)
            return

        if op == "ret":
            if instr.args:
                value = instr.args[0]
                if isinstance(value, Const):
                    self.emit(Opcode.MOVI, 0, value.value, ir_id=iid)
                else:
                    self.emit(Opcode.MOV, 0, self.vreg_of(value, iid), ir_id=iid)
            self.emit(Opcode.RET, ir_id=iid)
            return

        raise BackendError(f"no selection rule for IR op {op!r}")


def _folded_geps(function: Function) -> dict:
    """The geps whose only users are load and store addresses in their own
    block, by id (selection fills in their base and offset)."""
    users: dict[int, tuple] = {}
    for instr in function.all_instructions():
        for operand in instr.operands():
            if isinstance(operand, Instr) and operand.op == "gep":
                users.setdefault(operand.id, (operand, []))[1].append(instr)
    return {
        gep.id: None for gep, found in users.values()
        if all(
            user.op in ("load", "store") and user.block is gep.block
            and user.args[0] is gep and gep not in user.args[1:]
            for user in found
        )
    }


def select_function(
    function: Function,
    tagging_enabled: bool = False,
    invert_branches: set[int] | frozenset = frozenset(),
    qualify_tags: bool = False,
) -> IselResult:
    """Lower one IR function to virtual-register machine code.

    ``invert_branches`` holds the ids of ``condbr`` instructions whose hot
    edge is the *false* edge (profile feedback); those lower with the
    BRZ/JMP layout so the common path retires one branch instead of two.
    ``qualify_tags`` makes constant ``settag``s preserve the query-id half
    of the tag register (concurrent serving, repro.serve).
    """
    return _Isel(function, tagging_enabled, invert_branches, qualify_tags).run()
