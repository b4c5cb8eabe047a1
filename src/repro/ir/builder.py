"""IRBuilder: the single funnel through which all IR is created.

The paper (§5.2) notes that in Umbra "produce, consume, task registration,
task triggering, and instruction generation are all funnelled through a
single code location, which we use both to update the Abstraction Trackers
and to populate the Tagging Dictionary".  This class is that location:
every instruction creation fires the ``listeners`` callbacks, and the
profiling integration subscribes there — the engine itself needs no other
changes.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import IRError
from repro.ir.nodes import (
    BINARY_OPS,
    CMP_OPS,
    Block,
    Const,
    Function,
    Instr,
    Type,
    Value,
)
from repro.numbering import draw


class IRBuilder:
    """Builds SSA instructions into basic blocks of one function."""

    def __init__(self, function: Function):
        self.function = function
        self._block: Block | None = None
        self.listeners: list[Callable[[Instr], None]] = []

    # -- structure --------------------------------------------------------

    def block(self, name: str) -> Block:
        """Create (and register) a new basic block; does not switch to it."""
        base = name
        suffix = 1
        existing = {b.name for b in self.function.blocks}
        while name in existing:
            suffix += 1
            name = f"{base}{suffix}"
        blk = Block(name=name, function=self.function)
        self.function.blocks.append(blk)
        return blk

    def set_block(self, block: Block) -> None:
        if block.function is not self.function:
            raise IRError("block belongs to a different function")
        self._block = block

    @property
    def current(self) -> Block:
        if self._block is None:
            raise IRError("no current block; call set_block first")
        return self._block

    # -- constants --------------------------------------------------------

    def const(self, value: int, type: Type = Type.I64) -> Const:
        return Const(value, type)

    def const_f64(self, value: float) -> Const:
        return Const(float(value), Type.F64)

    # -- emission ---------------------------------------------------------

    def _emit(
        self,
        op: str,
        args: list[Value],
        type: Type,
        at_front: bool = False,
        **attrs,
    ) -> Instr:
        block = self.current
        if block.terminator is not None:
            raise IRError(f"block {block.name} already terminated")
        instr = Instr(
            id=draw("instr"),
            op=op,
            args=args,
            type=type,
            block=block,
            **attrs,
        )
        if at_front:
            # phis go before any non-phi instruction
            pos = 0
            while pos < len(block.instructions) and block.instructions[pos].op == "phi":
                pos += 1
            block.instructions.insert(pos, instr)
        else:
            block.instructions.append(instr)
        for listener in self.listeners:
            listener(instr)
        return instr

    # -- arithmetic / logic -------------------------------------------------

    def binary(self, op: str, a: Value, b: Value) -> Instr:
        if op not in BINARY_OPS:
            raise IRError(f"not a binary op: {op}")
        if op == "fdiv":
            result = Type.F64
        elif op == "crc32":
            result = Type.I64
        elif (
            op in ("and", "or", "xor")
            and a.type is Type.BOOL
            and b.type is Type.BOOL
        ):
            result = Type.BOOL
        else:
            result = a.type if a.type != Type.BOOL else Type.I64
        return self._emit(op, [a, b], result)

    def add(self, a, b):
        return self.binary("add", a, b)

    def sub(self, a, b):
        return self.binary("sub", a, b)

    def mul(self, a, b):
        return self.binary("mul", a, b)

    def sdiv(self, a, b):
        return self.binary("sdiv", a, b)

    def srem(self, a, b):
        return self.binary("srem", a, b)

    def and_(self, a, b):
        return self.binary("and", a, b)

    def or_(self, a, b):
        return self.binary("or", a, b)

    def xor(self, a, b):
        return self.binary("xor", a, b)

    def shl(self, a, b):
        return self.binary("shl", a, b)

    def shr(self, a, b):
        return self.binary("shr", a, b)

    def rotr(self, a, b):
        return self.binary("rotr", a, b)

    def fdiv(self, a, b):
        return self.binary("fdiv", a, b)

    def crc32(self, a, b):
        return self.binary("crc32", a, b)

    def min(self, a, b):
        return self.binary("min", a, b)

    def max(self, a, b):
        return self.binary("max", a, b)

    def cmp(self, op: str, a: Value, b: Value) -> Instr:
        if op not in CMP_OPS:
            raise IRError(f"not a comparison op: {op}")
        return self._emit(op, [a, b], Type.BOOL)

    def select(self, cond: Value, if_true: Value, if_false: Value) -> Instr:
        if cond.type != Type.BOOL:
            raise IRError("select condition must be i1")
        return self._emit("select", [cond, if_true, if_false], if_true.type)

    def sitofp(self, a: Value) -> Instr:
        return self._emit("sitofp", [a], Type.F64)

    def fptosi(self, a: Value) -> Instr:
        return self._emit("fptosi", [a], Type.I64)

    # -- memory ------------------------------------------------------------

    def gep(self, base: Value, index: Value | None = None, scale: int = 8, offset: int = 0) -> Instr:
        """Address arithmetic: ``base + index * scale + offset`` (bytes)."""
        if base.type != Type.PTR:
            raise IRError("gep base must be a pointer")
        args = [base] if index is None else [base, index]
        return self._emit("gep", args, Type.PTR, scale=scale, offset=offset)

    def load(self, ptr: Value, type: Type = Type.I64, comment: str = "") -> Instr:
        if ptr.type != Type.PTR:
            raise IRError("load address must be a pointer")
        return self._emit("load", [ptr], type, comment=comment)

    def store(self, ptr: Value, value: Value, comment: str = "") -> Instr:
        if ptr.type != Type.PTR:
            raise IRError("store address must be a pointer")
        return self._emit("store", [ptr, value], Type.VOID, comment=comment)

    # -- control flow --------------------------------------------------------

    def br(self, target: Block) -> Instr:
        return self._emit("br", [], Type.VOID, targets=(target,))

    def condbr(self, cond: Value, if_true: Block, if_false: Block) -> Instr:
        if cond.type != Type.BOOL:
            raise IRError("condbr condition must be i1")
        return self._emit("condbr", [cond], Type.VOID, targets=(if_true, if_false))

    def phi(self, type: Type = Type.I64) -> Instr:
        return self._emit("phi", [], type, at_front=True)

    def add_incoming(self, phi: Instr, value: Value, block: Block) -> None:
        if phi.op != "phi":
            raise IRError("add_incoming on a non-phi instruction")
        phi.incomings.append((value, block))

    def ret(self, value: Value | None = None) -> Instr:
        args = [] if value is None else [value]
        return self._emit("ret", args, Type.VOID)

    # -- calls ---------------------------------------------------------------

    def call(self, callee: str, args: list[Value], type: Type = Type.I64) -> Instr:
        return self._emit("call", list(args), type, callee=callee)

    def kcall(self, kernel_id: int, args: list[Value], type: Type = Type.I64) -> Instr:
        return self._emit("kcall", list(args), type, offset=kernel_id)

    def settag(self, tag: Value) -> Instr:
        """Write ``tag`` into the reserved tag register; returns the old tag.

        This is the IR form of the paper's Listing 2 inline assembly.  The
        backend lowers it to register moves when Register Tagging is enabled
        and drops it otherwise.
        """
        return self._emit("settag", [tag], Type.I64)

    def nop(self) -> Instr:
        return self._emit("nop", [], Type.VOID)
