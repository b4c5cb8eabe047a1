"""Backend driver: verify, optimize, select, allocate, link.

``compile_module`` appends every function of an IR module to a native
:class:`~repro.vm.isa.Program`, resolving cross-function calls against both
the module itself and anything already linked into the program (the
pre-compiled runtime library).  It returns per-function compilation
artifacts, including the optimizer's Tagging-Dictionary deltas and the
allocator's spill statistics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import BackendError
from repro.ir.nodes import Module
from repro.ir.verifier import verify_function
from repro.vm.isa import CodeRegion, FunctionInfo, Opcode, Program, rebase
from repro.backend.feedback import BackendFeedback
from repro.backend.isel import select_function
from repro.backend.opts import OptimizationResult, optimize_function
from repro.backend.regalloc import AllocationStats, allocate_function


@dataclass(frozen=True)
class BackendOptions:
    """Knobs the evaluation sweeps over."""

    reserve_tag_register: bool = False  # Register Tagging on/off
    # query-qualified tagging (repro.serve): constant settags preserve the
    # query-id half of the tag register instead of overwriting the whole
    # register, so one cached compile serves many concurrent queries
    qualify_tags: bool = False
    optimize: bool = True  # constfold + CSE + DCE
    # profile feedback (repro.pgo): branch layout + spill-cost hints,
    # resolved per function after optimization
    feedback: "BackendFeedback | None" = None
    # deliberate-miscompile hook for the differential fuzzer: the named
    # fault is injected into the first eligible instruction of the module
    # (see _inject_fault).  Never set outside tests/fuzzing.
    inject_fault: str | None = None


_CMP_NEGATION = {
    "cmpeq": "cmpne", "cmpne": "cmpeq",
    "cmplt": "cmpge", "cmpge": "cmplt",
    "cmple": "cmpgt", "cmpgt": "cmple",
}


def _inject_fault(function, kind: str) -> bool:
    """Miscompile ``function`` in place; returns True once applied.

    ``invert-first-cmpeq`` negates the module's first equality compare —
    the shape of a real branch-inversion miscompile (cf. the PGO backend's
    branch-layout feedback, which this guards against).  Equality feeds
    filters, hash-join probes, and group-by key checks, never loop bounds,
    so the damaged code still terminates — it just answers wrongly.
    """
    if kind != "invert-first-cmpeq":
        raise BackendError(f"unknown fault injection {kind!r}")
    for instr in function.all_instructions():
        if instr.op == "cmpeq":
            instr.op = _CMP_NEGATION[instr.op]
            return True
    return False


def _loop_weights(function, dominators) -> dict[int, float]:
    """``8 ** loop depth`` per instruction id, the static spill weights: a
    back edge enters a block that dominates its source, and its natural
    loop is every block reaching that source without passing the header."""
    edges = [(b, t) for b in function.blocks for t in b.terminator.targets or ()]
    preds = {id(block): [] for block in function.blocks}
    for block, target in edges:
        preds[id(target)].append(block)
    loops: dict[int, set[int]] = {}
    for block, header in edges:
        if id(header) in dominators.get(id(block), ()):
            body, stack = loops.setdefault(id(header), {id(header)}), [block]
            while stack:
                node = stack.pop()
                if id(node) not in body:
                    body.add(id(node))
                    stack.extend(preds[id(node)])
    depth = Counter(node for body in loops.values() for node in body)
    return {
        instr.id: 8.0 ** depth[id(block)]
        for block in function.blocks for instr in block.instructions
    }


@dataclass
class CompiledFunction:
    """Everything the profiler and the benchmarks need per function."""

    name: str
    info: FunctionInfo
    opt_result: OptimizationResult
    alloc_stats: AllocationStats
    native_size: int = 0
    debug_entries: int = 0


@dataclass
class LinkUnit:
    """Intermediate per-function artifact before placement."""

    name: str
    code: list[tuple] = field(default_factory=list)
    debug: dict[int, int] = field(default_factory=dict)
    call_fixups: list[tuple[int, str]] = field(default_factory=list)
    opt_result: OptimizationResult | None = None
    alloc_stats: AllocationStats | None = None


def compile_module(
    module: Module,
    program: Program,
    region: CodeRegion,
    options: BackendOptions | None = None,
) -> dict[str, CompiledFunction]:
    """Compile all functions of ``module`` into ``program``.

    Register Tagging instructions (IR ``settag``) are only materialized when
    ``options.reserve_tag_register`` is set; otherwise they vanish, exactly
    like profiling-disabled production builds.
    """
    options = options or BackendOptions()
    units: list[LinkUnit] = []
    fault_pending = options.inject_fault is not None
    for function in module.functions:
        dominators = verify_function(function)
        if options.optimize:
            opt_result = optimize_function(function)
            dominators = verify_function(function)
        else:
            opt_result = OptimizationResult()
        if fault_pending and _inject_fault(function, options.inject_fault):
            fault_pending = False
        if options.feedback is not None:
            # keys refer to post-optimization positions, so resolve here
            invert_branches, hotness = options.feedback.resolve(function)
        else:
            invert_branches, hotness = set(), None
        isel = select_function(
            function,
            tagging_enabled=options.reserve_tag_register,
            invert_branches=invert_branches,
            qualify_tags=options.qualify_tags,
        )
        allocated = allocate_function(
            isel.items,
            reserve_tag_register=options.reserve_tag_register,
            weights=hotness or _loop_weights(function, dominators),
        )
        units.append(
            LinkUnit(
                name=function.name,
                code=allocated.code,
                debug=allocated.debug,
                call_fixups=allocated.call_fixups,
                opt_result=opt_result,
                alloc_stats=allocated.stats,
            )
        )

    # place every function, then patch call targets by name
    placed: dict[str, FunctionInfo] = {}
    fixups: list[tuple[int, str]] = []
    compiled: dict[str, CompiledFunction] = {}
    for unit in units:
        start = len(program.code)
        info = program.append_function(
            unit.name, rebase(unit.code, start), region, debug=unit.debug
        )
        placed[unit.name] = info
        fixups.extend((start + offset, target) for offset, target in unit.call_fixups)
        compiled[unit.name] = CompiledFunction(
            name=unit.name,
            info=info,
            opt_result=unit.opt_result,
            alloc_stats=unit.alloc_stats,
            native_size=len(unit.code),
            debug_entries=len(unit.debug),
        )

    for ip, target in fixups:
        if target in placed:
            entry = placed[target].start
        else:
            entry = program.function_named(target).start
        op, _, b, c = program.code[ip]
        if op != Opcode.CALL:
            raise BackendError(f"call fixup at {ip} does not point at a call")
        program.code[ip] = (op, entry, b, c)

    return compiled
