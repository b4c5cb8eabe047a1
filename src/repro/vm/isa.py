"""The native instruction set targeted by the backend.

This is the lowest abstraction level of the stack (the paper's "machine
instructions").  It is a 16-register, 64-bit word machine.  Instructions are
stored as plain 4-tuples ``(opcode, a, b, c)`` for interpreter speed; this
module provides the symbolic layer on top: opcode constants, assembly from
labelled form, function/region bookkeeping, and a disassembler.

Register convention (enforced by the backend, not the hardware):

======  =====================================================
r0      first argument / return value
r1-5    further arguments; r3-r5 are also the spill scratch
r7-14   allocated, caller-saved: a call site stores the values
        live across it and reloads them after (r6 is unused)
r14     **tag register** when Register Tagging reserves it
r15     stack pointer (spill and save slots grow downward)
======  =====================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import BackendError

NUM_REGS = 16
REG_ARG0 = 0
REG_RET = 0
REG_TAG = 14
REG_SP = 15

# The tag register carries a (query-id, component-tag) pair when several
# queries share the same compiled code on the same workers (repro.serve):
# the low 32 bits hold the component tag written by ``settag`` lowering,
# the high bits hold the query id installed by the scheduler at morsel
# dispatch.  Single-query runs leave the high half zero, so the packing is
# invisible to the classic profiling path.
TAG_QUERY_SHIFT = 32
TAG_TASK_MASK = (1 << TAG_QUERY_SHIFT) - 1


class Opcode:
    """Opcode namespace; values are plain ints for dispatch speed."""

    NOP = 0
    MOV = 1  # rd <- ra
    MOVI = 2  # rd <- imm
    LOAD = 3  # rd <- mem[ra + imm]
    STORE = 4  # mem[ra + imm] <- rb
    ADD = 5
    SUB = 6
    MUL = 7
    SDIV = 8
    SREM = 9
    AND = 10
    OR = 11
    XOR = 12
    SHL = 13
    SHR = 14
    ROTR = 15
    ADDI = 16  # rd <- ra + imm
    MULI = 17
    ANDI = 18
    SHLI = 19
    SHRI = 20
    XORI = 21
    CMPEQ = 22
    CMPNE = 23
    CMPLT = 24
    CMPLE = 25
    CMPGT = 26
    CMPGE = 27
    CMPEQI = 28
    CMPNEI = 29
    CMPLTI = 30
    CMPLEI = 31
    CMPGTI = 32
    CMPGEI = 33
    FDIV = 34
    CVTIF = 35  # int -> float
    CVTFI = 36  # float -> int (truncate)
    CRC32 = 37  # rd <- crc32 mix of ra, rb
    JMP = 38  # -> imm
    BRZ = 39  # if ra == 0 -> imm
    BRNZ = 40  # if ra != 0 -> imm
    CALL = 41  # call function starting at imm
    RET = 42
    KCALL = 43  # kernel call, imm = kernel function id
    HALT = 44
    SELECT = 45  # rd <- rb if ra != 0 else rc
    MIN = 46
    MAX = 47


OPCODE_NAMES = {v: k.lower() for k, v in vars(Opcode).items() if not k.startswith("_")}

_BINOPS = {
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.SDIV, Opcode.SREM,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.ROTR,
    Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPLT, Opcode.CMPLE, Opcode.CMPGT,
    Opcode.CMPGE, Opcode.FDIV, Opcode.CRC32, Opcode.MIN, Opcode.MAX,
}
_BINOPS_IMM = {
    Opcode.ADDI, Opcode.MULI, Opcode.ANDI, Opcode.SHLI, Opcode.SHRI,
    Opcode.XORI, Opcode.CMPEQI, Opcode.CMPNEI, Opcode.CMPLTI, Opcode.CMPLEI,
    Opcode.CMPGTI, Opcode.CMPGEI,
}
BRANCH_OPS = {Opcode.JMP, Opcode.BRZ, Opcode.BRNZ}
COND_BRANCH_OPS = {Opcode.BRZ, Opcode.BRNZ}
# Ops after which straight-line decoding must stop: control leaves the
# block (branches, calls, returns) or re-enters the host (kernel calls).
TERMINATOR_OPS = {
    Opcode.JMP, Opcode.BRZ, Opcode.BRNZ,
    Opcode.CALL, Opcode.RET, Opcode.KCALL, Opcode.HALT,
}


def block_leaders(program: "Program") -> set[int]:
    """IPs where a basic block can begin (the translator's decode step).

    Leaders are function entries, the program entry, branch and call
    targets, and every fall-through successor of a control transfer —
    the classic two-pass basic-block decoding.  Out-of-range targets are
    dropped; executing them still faults through the interpreter path.
    """
    code = program.code
    leaders = {program.entry}
    for info in program.functions:
        leaders.add(info.start)
    for ip, ins in enumerate(code):
        op = ins[0]
        if op == Opcode.JMP:
            leaders.add(ins[1])
        elif op == Opcode.BRZ or op == Opcode.BRNZ:
            leaders.add(ins[2])
            leaders.add(ip + 1)
        elif op == Opcode.CALL:
            leaders.add(ins[1])
            leaders.add(ip + 1)
        elif op == Opcode.KCALL or op == Opcode.RET or op == Opcode.HALT:
            leaders.add(ip + 1)
    return {ip for ip in leaders if 0 <= ip < len(code)}


class CodeRegion(enum.Enum):
    """Which part of the address space an instruction lives in.

    The profiler's attribution buckets (Table 2) are defined in these terms:
    QUERY code is generated per query and covered by the Tagging Dictionary,
    RUNTIME is the pre-compiled library (shared source locations, covered via
    Register Tagging), SYSLIB is deliberately untagged (the paper's ~2 %
    unattributed system-library samples), KERNEL is the simulated OS.
    """

    QUERY = "query"
    RUNTIME = "runtime"
    SYSLIB = "syslib"
    KERNEL = "kernel"


@dataclass
class FunctionInfo:
    """Metadata for one native function in a program image."""

    name: str
    start: int
    end: int  # exclusive
    region: CodeRegion

    def contains(self, ip: int) -> bool:
        return self.start <= ip < self.end


@dataclass
class Label:
    """A symbolic branch target used before assembly."""

    name: str


@dataclass
class Program:
    """A fully assembled native program image.

    ``code`` holds instruction tuples; IPs are indices into it.  ``debug``
    maps each QUERY/RUNTIME ip to the id of the IR instruction it was
    selected from — the DWARF-equivalent the final lowering step provides.
    """

    code: list[tuple] = field(default_factory=list)
    functions: list[FunctionInfo] = field(default_factory=list)
    debug: dict[int, int] = field(default_factory=dict)
    entry: int = 0

    def function_at(self, ip: int) -> FunctionInfo | None:
        for info in self.functions:
            if info.contains(ip):
                return info
        return None

    def function_named(self, name: str) -> FunctionInfo:
        for info in self.functions:
            if info.name == name:
                return info
        raise BackendError(f"no native function named {name!r}")

    def region_at(self, ip: int) -> CodeRegion | None:
        info = self.function_at(ip)
        return info.region if info else None

    def append_function(
        self,
        name: str,
        instructions: list[tuple],
        region: CodeRegion,
        debug: dict[int, int] | None = None,
    ) -> FunctionInfo:
        """Append an already-assembled instruction list as a new function."""
        start = len(self.code)
        self.code.extend(instructions)
        info = FunctionInfo(name, start, len(self.code), region)
        self.functions.append(info)
        if debug:
            for offset, ir_id in debug.items():
                self.debug[start + offset] = ir_id
        return info

    def disassemble(self, start: int = 0, end: int | None = None) -> str:
        end = len(self.code) if end is None else end
        lines = []
        for ip in range(start, end):
            info = self.function_at(ip)
            if info and info.start == ip:
                lines.append(f"{info.name}: ; [{info.region.value}]")
            lines.append(f"  {ip:6d}  {format_instruction(self.code[ip])}")
        return "\n".join(lines)


def format_instruction(ins: tuple) -> str:
    op, a, b, c = ins
    name = OPCODE_NAMES.get(op, f"op{op}")
    if op == Opcode.NOP or op == Opcode.RET or op == Opcode.HALT:
        return name
    if op == Opcode.MOV:
        return f"{name} r{a}, r{b}"
    if op == Opcode.MOVI:
        return f"{name} r{a}, {b}"
    if op == Opcode.LOAD:
        return f"{name} r{a}, [r{b}+{c}]"
    if op == Opcode.STORE:
        return f"{name} [r{a}+{c}], r{b}"
    if op in _BINOPS:
        return f"{name} r{a}, r{b}, r{c}"
    if op in _BINOPS_IMM:
        return f"{name} r{a}, r{b}, {c}"
    if op in (Opcode.CVTIF, Opcode.CVTFI):
        return f"{name} r{a}, r{b}"
    if op == Opcode.JMP:
        return f"{name} {a}"
    if op in (Opcode.BRZ, Opcode.BRNZ):
        return f"{name} r{a}, {b}"
    if op == Opcode.CALL:
        return f"{name} {a}"
    if op == Opcode.KCALL:
        return f"{name} {a}"
    if op == Opcode.SELECT:
        return f"{name} r{a}, r{b}, r{c[0]}, r{c[1]}" if isinstance(c, tuple) else f"{name} r{a}, ..."
    return f"{name} {a}, {b}, {c}"


def assemble(items: list) -> tuple[list[tuple], dict[str, int]]:
    """Resolve :class:`Label` markers in a mixed instruction/label list.

    Returns the flat instruction list and a map from label name to offset
    (function-relative).  Branch targets given as label *names* (strings) in
    the immediate slot are patched to offsets.
    """
    offsets: dict[str, int] = {}
    flat: list = []
    for item in items:
        if isinstance(item, Label):
            if item.name in offsets:
                raise BackendError(f"duplicate label {item.name!r}")
            offsets[item.name] = len(flat)
        else:
            flat.append(item)

    resolved: list[tuple] = []
    for ins in flat:
        op, a, b, c = ins
        if op == Opcode.JMP and isinstance(a, str):
            if a not in offsets:
                raise BackendError(f"undefined label {a!r}")
            ins = (op, offsets[a], b, c)
        elif op in (Opcode.BRZ, Opcode.BRNZ) and isinstance(b, str):
            if b not in offsets:
                raise BackendError(f"undefined label {b!r}")
            ins = (op, a, offsets[b], c)
        resolved.append(ins)
    return resolved, offsets


def rebase(instructions: list[tuple], base: int) -> list[tuple]:
    """Shift function-relative branch targets to absolute IPs at ``base``."""
    out = []
    for ins in instructions:
        op, a, b, c = ins
        if op == Opcode.JMP:
            ins = (op, a + base, b, c)
        elif op in (Opcode.BRZ, Opcode.BRNZ):
            ins = (op, a, b + base, c)
        out.append(ins)
    return out
