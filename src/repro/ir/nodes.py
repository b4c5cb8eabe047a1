"""SSA IR node classes: values, instructions, blocks, functions, modules.

The IR is deliberately LLVM-shaped (compare the paper's Listing 1): SSA
values ``%n``, basic blocks with explicit terminators, ``phi`` nodes,
``getelementptr``-style address arithmetic, and calls into a pre-compiled
runtime.  Instruction ids are unique per :class:`Module`, which is what the
Tagging Dictionary and the backend's debug information key on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import IRError


class Type(enum.Enum):
    """Value types.  The machine is a 64-bit word machine, so these mostly

    express intent (and catch codegen bugs) rather than storage width."""

    I64 = "i64"
    F64 = "f64"
    PTR = "ptr"
    BOOL = "i1"
    VOID = "void"


class Value:
    """Anything an instruction may use as an operand."""

    type: Type


@dataclass(frozen=True)
class Const(Value):
    """A literal constant."""

    value: int | float
    type: Type = Type.I64

    def __str__(self) -> str:
        return f"{self.type.value} {self.value}"


@dataclass(frozen=True)
class Param(Value):
    """A function parameter."""

    index: int
    name: str
    type: Type = Type.I64

    def __str__(self) -> str:
        return f"%{self.name}"


# Instruction opcodes.  Kept as strings: the backend dispatches once per
# compile, never in the interpreter hot loop.
BINARY_OPS = frozenset(
    "add sub mul sdiv srem and or xor shl shr rotr fdiv crc32 min max".split()
)
CMP_OPS = frozenset("cmpeq cmpne cmplt cmple cmpgt cmpge".split())
TERMINATORS = frozenset(["br", "condbr", "ret"])
ALL_OPS = (
    BINARY_OPS
    | CMP_OPS
    | TERMINATORS
    | frozenset(
        "gep load store phi call kcall select sitofp fptosi settag nop".split()
    )
)


class Instr(Value):
    """One SSA instruction.

    ``args`` holds operand values.  Structured operands live in dedicated
    attributes: branch targets (``targets``), phi incomings (``incomings``),
    call target names (``callee``), gep scale/offset immediates.
    """

    __slots__ = (
        "id",
        "op",
        "args",
        "type",
        "block",
        "targets",
        "incomings",
        "callee",
        "scale",
        "offset",
        "comment",
    )

    def __init__(
        self,
        id: int,
        op: str,
        args: list[Value],
        type: Type,
        block: "Block",
        targets: tuple["Block", ...] = (),
        incomings: list[tuple[Value, "Block"]] | None = None,
        callee: str | None = None,
        scale: int = 0,
        offset: int = 0,
        comment: str = "",
    ):
        if op not in ALL_OPS:
            raise IRError(f"unknown IR opcode {op!r}")
        self.id = id
        self.op = op
        self.args = args
        self.type = type
        self.block = block
        self.targets = targets
        self.incomings = incomings if incomings is not None else []
        self.callee = callee
        self.scale = scale
        self.offset = offset
        self.comment = comment

    @property
    def is_terminator(self) -> bool:
        return self.op in TERMINATORS

    def operands(self) -> list[Value]:
        ops = list(self.args)
        if self.op == "phi":
            ops.extend(value for value, _ in self.incomings)
        return ops

    def __repr__(self) -> str:
        return f"<Instr %{self.id} {self.op}>"


@dataclass
class Block:
    """A basic block: straight-line instructions ending in a terminator."""

    name: str
    function: "Function"
    instructions: list[Instr] = field(default_factory=list)

    @property
    def terminator(self) -> Instr | None:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def predecessors(self) -> list["Block"]:
        preds = []
        for block in self.function.blocks:
            term = block.terminator
            if term is not None and self in term.targets:
                preds.append(block)
        return preds

    def __repr__(self) -> str:
        return f"<Block {self.name}>"


@dataclass
class Function:
    """An IR function — one per pipeline, plus the runtime library."""

    name: str
    module: "Module"
    params: list[Param] = field(default_factory=list)
    return_type: Type = Type.VOID
    blocks: list[Block] = field(default_factory=list)

    @property
    def entry(self) -> Block:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def all_instructions(self):
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self) -> int:
        return sum(len(b.instructions) for b in self.blocks)


import itertools

_global_instr_ids = itertools.count(1)


@dataclass
class Module:
    """A compilation unit: the functions generated for one query, plus

    (separately compiled) the runtime library.  Instruction ids are globally
    unique — several modules (query, runtime, syslib) are linked into one
    program image and share the debug-info and Tagging-Dictionary key
    spaces."""

    name: str
    functions: list[Function] = field(default_factory=list)

    def new_function(
        self,
        name: str,
        params: list[tuple[str, Type]] | None = None,
        return_type: Type = Type.VOID,
    ) -> Function:
        if any(f.name == name for f in self.functions):
            raise IRError(f"duplicate function name {name!r}")
        fn = Function(name=name, module=self, return_type=return_type)
        for i, (pname, ptype) in enumerate(params or []):
            fn.params.append(Param(index=i, name=pname, type=ptype))
        self.functions.append(fn)
        return fn

    def function_named(self, name: str) -> Function:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise IRError(f"no function named {name!r} in module {self.name}")

    def next_id(self) -> int:
        return next(_global_instr_ids)

    def instruction_count(self) -> int:
        return sum(f.instruction_count() for f in self.functions)
