"""Template translation: compile basic blocks into host-Python functions.

This is the fast half of the machine's dual-mode engine, shaped like the
basic-block translators of fast cycle-accounting simulators (QEMU's TCG,
gem5 fast-forward): decode the guest :class:`~repro.vm.isa.Program` into
superblocks (single-entry multi-exit traces that follow conditional
fall-through and fold forward jumps), and ``exec``-compile a block into
one specialized Python function *once entries have made it hot*: every
leader starts as a stub map entry that always passes admission, runs the
interpreter while its leader is cold, and compiles its block, replaces
itself and hands the same ip back on the entry that makes it hot (see
:class:`Translation`).  Source is paid for in proportion to what
executes: blocks a query barely runs never compile, and traces and trees
leave out continuations no entry has reached.  Inside a block

- opcode dispatch is gone (each instruction became a dedicated statement),
- register/array accesses are inlined with constant indices,
- the static cycle cost and instruction count are folded into per-exit
  constants, data handed to the function's one tail, which writes the
  registers back, syncs the counters and pays the countdown once,

while everything *dynamic* keeps exact per-access accounting: loads and
stores still walk the cache hierarchy, conditional branches still train
the 2-bit predictor, and error paths re-materialize the precise
``MachineState`` the interpreter would have produced (same message, same
ip, same counter values, same PMU countdown).  An error site is a bare
guard or a bare access; what had retired there is data — a table keyed
by source line, read by the ``except`` that joins the same tail.

Sampling exactness is *admit on the static path, settle at the site*
(``docs/SIMULATOR.md``).  What is static on a path — an instruction, a
load, an L1-hit latency, a branch's one cycle — counts in the sampled
event's terms, and a *check site* stands wherever a path would pass
``FAST_VM_MAX_BLOCK`` such events since the last one.  The driver enters
a block only while the live countdown exceeds its *event bound* (what
is static up to the first check), a check leaves unless the countdown
still exceeds ``FAST_VM_MAX_BLOCK``, and the interpreter finishes the
sampling window (``Machine._run_fast``).  What is *dynamic* — a miss's
extra latency, a mispredict's penalty, the L1-miss and branch-miss
events themselves — settles where it lands: unless the countdown still
exceeds the static events ahead, the arm leaves through the tail,
which syncs the interpreter's state with that instruction retired,
takes the sample if it is due and hands the next ip back.  So a sample
can fall due only *at* a settle site, on the interpreter's state.

Traces rooted at loop heads, armed or not, inline their side-exit
continuations into superblock *trees* (bounded by ``_TREE_BUDGET`` and
``_TREE_DEPTH``) that follow calls into the callee and back, and a
branch back to the head closes the loop inside the compiled function —
after re-checking the instruction budget (and, armed, the countdown)
exactly as the driver would.  A root that is no loop head follows no
call and ends where a compiled loop begins.

Translations are cached on the Program object, keyed by the sampled event
(the countdown bookkeeping is specialized per event), so the morsel
workers of one query share one translation — its heat, and a block one
of them compiled is compiled for all.

Every root gets one treatment, at its first compile (``docs/TIERING.md``).
A loop head uses *deferred sync*: counters, predictor state and the PMU
countdown live in Python locals across iterations, and the tail syncs
the exact interpreter-visible state at real exits and when the edge
check fails (a sampling window or the budget about to end).  Nothing
speculates, so nothing is ever undone; a run reports tier 2 once a root
of its plan closed a deferred loop.

A block's source is made in three steps over one trace tree — grow,
measure, emit (:func:`_grow`, :func:`_measure`, :func:`_emit`) — and
everything known about an opcode is one row of one table, ``_OPS``.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from hashlib import sha256
from time import perf_counter
from typing import NamedTuple

from repro.errors import VMError
from repro.vm import costs
from repro.vm.isa import (
    COND_BRANCH_OPS, Opcode, Program, REG_SP, TERMINATOR_OPS, block_leaders,
)
from repro.vm.pmu import Event

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63

# countdown-bookkeeping mode per sampled event (None = PMU off)
_MODES = {
    None: "",
    Event.INSTRUCTIONS: "instr",
    Event.CYCLES: "cycles",
    Event.LOADS: "loads",
    Event.L1_MISS: "l1",
    Event.BRANCH_MISS: "brmiss",
}

# Superblock-tree growth limits: total emitted instructions per block
# function, and how deep side-exit continuations and followed calls nest.
_TREE_BUDGET = 1536
_TREE_DEPTH = 8
_CALL_DEPTH = 4

# what may stand in an immediate slot, by slot kind (see ``_Op``)
_VALID = {
    "i": lambda x: isinstance(x, (int, float)),
    "s": lambda x: isinstance(x, int),
    "n": lambda x: isinstance(x, int),
    "t": lambda x: isinstance(x, int) and x >= 0,
    "p": lambda x: isinstance(x, tuple) and len(x) == 2,
}


class _Op:
    """One row of the opcode table: what translation knows about a guest
    opcode, stated once.  ``kinds`` types the three operand slots — ``w``
    a written register, ``r`` a read one, ``p`` a pair of read ones,
    ``i`` a numeric immediate, ``s`` a shift count (an int, rendered
    ``& 63``), ``n`` an int displacement, ``t`` a target (an int >= 0),
    ``-`` unused — and is the operand-validity rule: anything odd in an
    immediate slot (an unresolved label, a negative target, a
    non-numeric immediate) leaves the instruction to the interpreter,
    which either handles it or produces the canonical error for it.
    ``lines`` is the source of a straight-line opcode, slots numbered as
    in the instruction tuple (``r{1}``: the register slot 1 names,
    ``{3!r}``: slot 3 as a literal); memory ops and the ways out of a
    trace are written by ``_Writer``.  ``cycles`` is the static cost;
    ``loads``, ``stores``, ``branches`` count what retires; ``faults``
    are the error sites among the instruction's lines, ``(offset,
    message)``; ``settles`` names the countdown modes in which it can
    cost more than its static ``events``: a miss, a mispredict."""

    def __init__(
        self, kinds, *lines, cycles=1, loads=0, stores=0, branches=0,
        faults=(), settles=(),
    ):
        self.lines, self.cycles, self.faults = lines, cycles, faults
        self.loads, self.stores, self.branches = loads, stores, branches
        self.settles = settles
        slots = list(enumerate(kinds, 1))
        self.reads = tuple(slot for slot, kind in slots if kind == "r")
        self.writes = tuple(slot for slot, kind in slots if kind == "w")
        self.pair, self.shift = "p" in kinds, "s" in kinds
        self.checks = tuple(
            (slot, _VALID[kind]) for slot, kind in slots if kind in _VALID
        )
        # static countdown events by mode: no miss or mispredict is one
        self.events = {
            "": 0, "instr": 1, "loads": loads, "l1": 0, "brmiss": 0,
            "cycles": cycles,
        }


def _family(kinds, symbols, *lines, **costed):
    return {
        op: _Op(kinds, *(ln.replace("%s", sym) for ln in lines), **costed)
        for op, sym in symbols.items()
    }


_MUL = (
    "_r = r{2} * %s",
    "if isinstance(_r, int):",
    f"    _r &= {_MASK64}",
    f"    if _r & {_SIGN64}:",
    f"        _r -= {1 << 64}",
    "r{1} = _r",
)
_OPS = {
    Opcode.NOP: _Op("---"),
    Opcode.MOV: _Op("wr-", "r{1} = r{2}"),
    Opcode.MOVI: _Op("wi-", "r{1} = {2!r}"),
    **_family("wrr", {
        Opcode.ADD: "+", Opcode.SUB: "-", Opcode.AND: "&",
        Opcode.OR: "|", Opcode.XOR: "^",
    }, "r{1} = r{2} %s r{3}"),
    **_family("wri", {
        Opcode.ADDI: "+", Opcode.ANDI: "&", Opcode.XORI: "^",
    }, "r{1} = r{2} %s {3!r}"),
    **_family("wrr", {
        Opcode.CMPEQ: "==", Opcode.CMPNE: "!=", Opcode.CMPLT: "<",
        Opcode.CMPLE: "<=", Opcode.CMPGT: ">", Opcode.CMPGE: ">=",
    }, "r{1} = 1 if r{2} %s r{3} else 0"),
    **_family("wri", {
        Opcode.CMPEQI: "==", Opcode.CMPNEI: "!=", Opcode.CMPLTI: "<",
        Opcode.CMPLEI: "<=", Opcode.CMPGTI: ">", Opcode.CMPGEI: ">=",
    }, "r{1} = 1 if r{2} %s {3!r} else 0"),
    Opcode.SHLI: _Op("wrs", f"r{{1}} = (r{{2}} << {{3}}) & {_MASK64}"),
    Opcode.SHRI: _Op("wrs", f"r{{1}} = (r{{2}} & {_MASK64}) >> {{3}}"),
    Opcode.SHL: _Op("wrr", f"r{{1}} = (r{{2}} << (r{{3}} & 63)) & {_MASK64}"),
    Opcode.SHR: _Op("wrr", f"r{{1}} = (r{{2}} & {_MASK64}) >> (r{{3}} & 63)"),
    Opcode.ROTR: _Op(
        "wrr", f"_v = r{{2}} & {_MASK64}", "_s = r{3} & 63",
        f"r{{1}} = ((_v >> _s) | (_v << (64 - _s))) & {_MASK64}",
    ),
    **_family("wrr", {Opcode.MUL: "r{3}"}, *_MUL, cycles=costs.CYCLES_MUL),
    **_family("wri", {Opcode.MULI: "{3!r}"}, *_MUL, cycles=costs.CYCLES_MUL),
    Opcode.SDIV: _Op(
        "wrr", "_a = r{2}", "_b = r{3}", "if _b == 0: raise _Fault",
        "_q = abs(_a) // abs(_b)",
        "r{1} = -_q if (_a < 0) != (_b < 0) else _q",
        cycles=costs.CYCLES_DIV, faults=((2, "division by zero"),),
    ),
    Opcode.SREM: _Op(
        "wrr", "_b = r{3}", "if _b == 0: raise _Fault", "_a = r{2}",
        "_q = abs(_a) // abs(_b)",
        "if (_a < 0) != (_b < 0):",
        "    _q = -_q",
        "r{1} = _a - _b * _q",
        cycles=costs.CYCLES_DIV, faults=((1, "remainder by zero"),),
    ),
    Opcode.FDIV: _Op(
        "wrr", "_b = r{3}", "if _b == 0: raise _Fault", "r{1} = r{2} / _b",
        cycles=costs.CYCLES_DIV, faults=((1, "fdiv by zero"),),
    ),
    Opcode.CVTIF: _Op("wr-", "r{1} = float(r{2})"),
    Opcode.CVTFI: _Op("wr-", "r{1} = int(r{2})"),
    # int operands (the overwhelmingly common case: hash keys) run the
    # 64-bit mix inline; anything else falls back to crc32_mix, which
    # hashes floats by IEEE-754 bit pattern
    Opcode.CRC32: _Op(
        "wrr", "_a = r{2}", "_b = r{3}",
        "if _a.__class__ is int and _b.__class__ is int:",
        f"    _z = ((_a & {_MASK64}) ^ ((_b & {_MASK64})"
        f" * {0x9E3779B97F4A7C15})) & {_MASK64}",
        "    _z ^= _z >> 29",
        f"    _z = (_z * {0xBF58476D1CE4E5B9}) & {_MASK64}",
        "    r{1} = _z ^ (_z >> 32)",
        "else:",
        "    r{1} = crc32_mix(_a, _b)",
        cycles=costs.CYCLES_CRC32,
    ),
    Opcode.SELECT: _Op("wrp", "r{1} = r{3[0]} if r{2} else r{3[1]}"),
    **_family(
        "wrr", {Opcode.MIN: "<=", Opcode.MAX: ">="},
        "_a = r{2}", "_b = r{3}", "r{1} = _a if _a %s _b else _b",
    ),
    # LOAD is (op, dst, base, imm), STORE (op, base, src, imm); the L1-hit
    # latency is the static cost; the sites are the guard and the access
    Opcode.LOAD: _Op(
        "wrn", cycles=costs.LAT_L1, loads=1, settles=("cycles", "l1"),
        faults=(
            (0, "unaligned or null load at %#x"),
            (1, "load out of bounds at %#x"),
        ),
    ),
    Opcode.STORE: _Op(
        "rrn", cycles=costs.CYCLES_STORE, stores=1, faults=(
            (0, "unaligned or null store at %#x"),
            (1, "store out of bounds at %#x"),
        ),
    ),
    Opcode.JMP: _Op("t--", cycles=costs.CYCLES_BRANCH),
    **_family(
        "rt-", {Opcode.BRZ: "==", Opcode.BRNZ: "!="}, branches=1,
        cycles=costs.CYCLES_BRANCH, settles=("cycles", "brmiss"),
    ),
    Opcode.CALL: _Op(
        "t--", cycles=costs.CYCLES_CALL, faults=((3, "call stack overflow"),),
    ),
    Opcode.RET: _Op("---", cycles=costs.CYCLES_RET),
    # the kernel accounts for itself via advance_external
    Opcode.KCALL: _Op("---", cycles=0),
    Opcode.HALT: _Op("---", cycles=0),  # returns before any cost is charged
}


class _Fault(Exception):
    """Raised bare by a compiled block's guard or settle check; the
    raising line says which site it was to the same function's tail
    — it never leaves a block function."""


# A stub admits unconditionally: it retires zero instructions, and its
# event bound sits below any live countdown (the countdown is >= 1 at
# every instruction boundary — a sample re-arms it the moment it hits 0).
_STUB_BOUND = -1

# sha256 of generated text -> its code object, for the whole process: a
# plan lowered again (another database, the next shard, a fresh profile)
# emits the same text and skips ``compile``.  ``exec`` runs the code in
# each translation's own namespace, so ``_T`` and ``_b{ip}`` stay per
# translation.  Least recently used first; 2,048 hold the 22 TPC-H
# queries' plain and armed texts (1,167) with room to spare.
_CODES: dict[bytes, object] = {}


def _code(source: str):
    key = sha256(source.encode()).digest()
    _CODES[key] = _CODES.pop(key, None) or compile(source, "<fastvm>", "exec")
    if len(_CODES) > 2048:
        del _CODES[next(iter(_CODES))]
    return _CODES[key]


class Translation:
    """The block map of one program for one PMU event mode.

    ``blocks`` maps a leader ip to ``(fn, n_instructions, event_bound)``;
    ``fn(machine, regs, words, state, caches, predictor)`` executes the
    block and returns the next ip (negative = the run is complete).

    Blocks compile by heat.  Every leader starts as a *stub* entry, and
    ``heat`` counts its entries while it is one — dispatched by the
    driver or walked over by the interpreter.  Below ``hot_entries`` the
    stub hands the entry to ``Machine._interp``; the entry that reaches
    the threshold compiles that one block, replaces the stub's map entry
    with the result (or deletes it when nothing at the leader is
    translatable), and hands the same ip back, so the driver
    re-dispatches under the real block's admission check.  A stub
    touches no simulated state of its own, so it may always be admitted.

    Heat also shapes what compiles: a continuation no entry has reached
    stays an exit to the driver, remembered in ``pruned`` (root ip -> the
    exits its current code leaves out).  When such an exit turns hot,
    the root goes back to a stub and its next entry compiles it with the
    arm in place; ``regrown`` counts that per root, and at
    ``costs.FAST_VM_REGROW_LIMIT`` a root compiles unpruned.  ``loops``
    holds the roots that compiled a deferred loop: the run's tier, and
    where a root compiled later that is no loop head ends.
    """

    def __init__(self, program: Program, event: Event | None):
        self.code = program.code
        self.code_len = len(self.code)
        self.hot_entries = costs.FAST_VM_HOT_ENTRIES  # tests, oracle: 1
        self.heat: dict[int, int] = {}
        self.interpreted = 0  # cold entries the interpreter ran
        self.pruned: dict[int, set[int]] = {}
        self.regrown: dict[int, int] = {}
        self.compiled: set[int] = set()  # leaders compiled in the current map
        self.loops: set[int] = set()
        self.source_lines = 0
        self.compile_s = 0.0
        self._emit = _emit_settings(_MODES[event])
        # machine.py imports this module lazily, so the reverse import
        # here cannot form a cycle at module-load time
        from repro.vm.machine import crc32_mix

        self._namespace = {
            "VMError": VMError, "crc32_mix": crc32_mix, "_Fault": _Fault,
        }
        self.blocks = {ip: self._stub(ip) for ip in block_leaders(program)}
        self.leaders = len(self.blocks)

    def stale_for(self, program: Program) -> bool:
        return (
            self.code is not program.code
            or self.code_len != len(program.code)
        )

    def block(self, ip: int) -> tuple | None:
        """The compiled entry of leader ``ip`` (compiling it now, hot or
        not, if it is still a stub), or ``None`` when nothing there
        translates."""
        entry = self.blocks.get(ip)
        if entry is not None and entry[2] == _STUB_BOUND:
            started = perf_counter()
            entry = self._compile(ip)
            self.compile_s += perf_counter() - started
        return entry

    def stats(self) -> dict:
        """What translation made of the program so far: the tier (2 once
        a root compiled a deferred loop, else 1), static leaders, blocks
        compiled in the current map, cold entries run interpreted, exits
        its trees leave out and times a root was compiled again; source
        lines and host seconds."""
        return {
            "tier": 2 if self.loops else 1,
            "leaders": self.leaders,
            "compiled": len(self.compiled),
            "interpreted": self.interpreted,
            "pruned_exits": sum(map(len, self.pruned.values())),
            "regrown": sum(self.regrown.values()),
            "source_lines": self.source_lines,
            "compile_s": round(self.compile_s, 6),
        }

    def cold_entry(self, ip: int) -> bool:
        """Count one interpreted entry of the stub at ``ip``; False, and
        nothing counted, for the entry that makes it hot (the stub's)."""
        heat = self.heat.get(ip, 0) + 1
        if heat >= self.hot_entries:
            return False
        self.heat[ip] = heat
        self.interpreted += 1
        return True

    def _stub(self, ip: int) -> tuple:
        return (partial(self._enter, ip), 0, _STUB_BOUND)

    def _enter(self, ip, machine, *_):
        heat = self.heat.get(ip, 0) + 1
        if heat < self.hot_entries:
            return machine._interp(ip, self.blocks)
        self.heat[ip] = heat
        self.block(ip)
        for root, exits in self.pruned.items():
            # a tree compiled while this exit was cold: its next entry
            # compiles it again, this arm inlined
            if ip in exits and root in self.compiled:
                self.regrown[root] = self.regrown.get(root, 0) + 1
                self.compiled.discard(root)
                self.blocks[root] = self._stub(root)
        return ip

    def _compile(self, ip: int) -> tuple | None:
        heat = self.heat
        if self.regrown.get(ip, 0) >= costs.FAST_VM_REGROW_LIMIT:
            heat = None  # regrown to the limit: compile whole
        tree = _grow(self.code, ip, heat=heat, loops=self.loops, **self._emit)
        if tree is None:
            del self.blocks[ip]
            return None
        # the function binds ``_T``, its sites, as it is defined
        source, self._namespace["_T"] = _emit(_measure(tree))
        exec(_code(source), self._namespace)
        entry = (self._namespace.pop(f"_b{ip}"), tree.max_k, tree.bound)
        self.blocks[ip] = entry
        # a path that hands control back mid-straight-line-code (size
        # cap, untranslatable instruction, a cold cut) continues in a
        # block of its own, so long arithmetic runs never drop to the
        # interpreter
        for fall in tree.fallthroughs:
            if fall not in self.blocks:
                self.blocks[fall] = self._stub(fall)
        self.pruned[ip] = set(tree.pruned)
        self.compiled.add(ip)
        if tree.loop:
            self.loops.add(ip)
        self.source_lines += source.count("\n")
        return entry


def _emit_settings(mode: str) -> dict:
    """The :func:`_grow` arguments of one translation: armed or not, a
    root decodes up to the plain cap (check sites keep its bound small)."""
    return dict(cap=costs.FAST_VM_MAX_BLOCK_PLAIN, mode=mode)


def translation_for(program: Program, pmu_config=None) -> Translation:
    """Return the one (cached) translation of ``program`` for machines
    armed with ``pmu_config`` (None: unarmed).  Nothing compiles here.

    The key is the event alone: no translation depends on the period."""
    cache = getattr(program, "_vm_translations", None)
    if cache is None:
        cache = {}
        program._vm_translations = cache
    event = pmu_config.event if pmu_config is not None else None
    entry = cache.get(event)
    if entry is None or entry.stale_for(program):
        entry = Translation(program, event)
        cache[event] = entry
    return entry


def _translatable(ins: tuple) -> bool:
    """True when the opcode has a row in ``_OPS`` and the operands fit it."""
    row = _OPS.get(ins[0])
    if row is None:
        return False
    for slot, valid in row.checks:
        if not valid(ins[slot]):
            return False
    return True


def _decode_trace(code, start, cap, heat=None, stop=(), rets=(), calls=None):
    """Follow the expected-hot path from ``start`` (superblock decoding).

    Returns ``(items, frames, fallthrough, cut)`` with items in retire
    order.  A conditional branch does not end the trace: decoding
    continues on the not-taken (fall-through) arm and the taken arm
    becomes a *side exit* in the emitted code — loop bodies laid out with
    backward taken edges therefore translate into a single block per
    iteration.  A strictly forward JMP is folded into the trace (it only
    costs cycles).  Given ``calls`` (a loop tree's followed sites, ``(ip,
    return stack)``), a CALL at a new site less than ``_CALL_DEPTH`` deep
    pushes its return on a static stack and goes on in the callee, and a
    RET pops one the trace pushed; ``frames``: the stack (``rets`` at
    ``start``) each item runs under.  The trace ends at any other
    CALL/RET, KCALL/HALT, a backward jump, an untranslatable instruction,
    the size cap or an ip in ``stop``; for the latter four, ``fallthrough``
    is the next ip to execute (the caller chains a continuation there);
    given ``heat``, it is ``cut`` where it reaches a leader never entered.
    """
    items, frames = [], []
    ip = start
    limit = len(code)
    while 0 <= ip < limit and len(items) < cap and ip not in stop:
        ins = code[ip]
        op = ins[0]
        if not _translatable(ins):
            # executing it falls back to the interpreter, which raises
            # the exact "illegal opcode" error if it must
            break
        items.append((ip, ins))
        frames.append(rets)
        if op not in TERMINATOR_OPS:
            ip += 1
            continue
        if op == Opcode.JMP and ins[1] > ip:
            ip = ins[1]
        elif op == Opcode.BRZ or op == Opcode.BRNZ:
            ip += 1
        elif (
            op == Opcode.CALL and calls is not None
            and len(rets) < _CALL_DEPTH and (ip, rets) not in calls
        ):
            calls.add((ip, rets))
            ip, rets = ins[1], rets + (ip + 1,)
        elif op == Opcode.RET and rets:
            ip, rets = rets[-1], rets[:-1]
        else:  # CALL, RET, KCALL, HALT, a backward JMP
            return items, frames, None, False
        if heat is not None and not heat.get(ip):
            return items, frames, ip, True
    return items, frames, ip, False


class _Treatment(NamedTuple):
    """How one root is translated: decided once, where :func:`_grow`
    starts.  A plain value: ``_replace`` builds the variant a test wants."""

    mode: str  # countdown bookkeeping, one of ``_MODES``' values
    # a loop head: side exits may inline their continuations, and state
    # lives in locals across iterations
    deferred: bool
    defer_cy: bool  # ... and ``cy`` accumulating across them too
    has_dyn: bool  # a dynamic-cycles accumulator ``cy`` exists


# what a side exit became, when not a child ``_Trace``: the back edge of
# the function-level loop, an exit to the driver, or one only heat pruned
_LOOP, _EXIT, _PRUNED = "loop", "exit", "pruned"


class _Trace:
    """One decoded trace of a tree.  ``exits`` says by item index what
    each side exit (a branch's taken arm, a jump that is not folded)
    became; ``at``, filled in by :func:`_measure`, holds the path-static
    totals ``(instructions, cycles, loads, stores, branches)`` retired
    *before* an item (so ``at[i + 1]``: with item ``i``) — around check,
    fault and settle sites and ways out, and under ``len(items)``;
    ``known``, what the path had established at a memory access
    (:meth:`_Facts.access`; no entry: nothing); ``checks``, the items a
    check site precedes; ``spent``, at an item that settles, its segment
    and the static countdown events spent in it, the item's included."""

    def __init__(self, items, frames, fall):
        self.items, self.frames, self.fall = items, frames, fall
        self.exits: dict[int, object] = {}
        self.at: dict[int, tuple] = {}
        self.known: dict[int, tuple] = {}
        self.checks: set[int] = set()
        self.spent: dict[int, tuple] = {}


def _side_target(ip: int, ins: tuple):
    """Where the side exit of a trace item leads; None when it has none
    (no branch, or a forward jump :func:`_decode_trace` folded in)."""
    if ins[0] == Opcode.JMP:
        return ins[1] if ins[1] <= ip else None
    return ins[2] if ins[0] in COND_BRANCH_OPS else None


class _Tree:
    """The trace tree of one root: :func:`_grow` decides ``treatment``,
    ``root`` and what hangs off it, the exits ``pruned`` by heat and the
    ``fallthroughs`` (either may repeat an ip); :func:`_measure` adds
    what its docstring lists."""

    def __init__(self, start, treatment, pruned):
        self.start, self.treatment, self.pruned = start, treatment, pruned
        self.fallthroughs: list[int] = []
        self.size = 0  # instructions in the tree (the growth budget)
        self.root: _Trace | None = None


def _grow(
    code, start, cap, mode, tree_budget=_TREE_BUDGET, tree_depth=_TREE_DEPTH,
    heat=None, loops=(),
):
    """Decode the root at ``start``, decide its treatment, and grow its
    trace tree; None if nothing there is translatable.  No text.

    Blocks rooted at loop heads may grow *superblock trees* (module
    docstring): the continuation of a side exit is decoded and inlined
    into the taken arm, so hot paths that zig-zag through taken branches
    — and loop cycles that cross several trace heads before branching
    back to this block's start — run inside one Python function.
    ``heat`` (None prunes nothing) keeps out what no entry has reached.
    A root that is no loop head stops at the first ip in ``loops`` (the
    heads of compiled loops) and falls through to it.
    """
    # what the root is does not depend on how much of it is warm yet
    whole_root, frames, _, _ = _decode_trace(code, start, cap, calls=set())
    if not whole_root:
        return None
    # Trees are grown only at *loop heads* — roots whose own trace, calls
    # followed, branches back to start.  Hot cycles always contain a loop
    # head, so the closed loop forms there, while cold leaders stay linear
    # and follow no call (no helper is copied into every caller).
    # Deferred sync: a loop head keeps its counters, predictor state and
    # countdown in locals until a real exit or a failed edge check.
    deferred = any(
        _side_target(ip, ins) == start and not rets
        for (ip, ins), rets in zip(whole_root, frames)
    )
    calls = set() if deferred else None
    # a linear root ends where a compiled loop begins, instead of running
    # one iteration of its body and leaving at its back edge
    root_items, root_frames, root_fall, cut = _decode_trace(
        code, start, cap, heat, () if deferred else loops, calls=calls
    )
    root_rows = [_OPS[ins[0]] for _, ins in root_items]
    treatment = _Treatment(
        mode=mode, deferred=deferred,
        # Deferred loops let ``cy`` (dynamic cycles: cache misses,
        # mispredicts) accumulate *across* iterations instead of folding
        # it into ``_cyt`` and resetting at every back edge — exits and
        # the tail adds ``cy`` once.  Not in ``cycles``, whose loop edge
        # decrements the countdown by each iteration's cost.
        defer_cy=deferred and mode != "cycles",
        # a tree may inline loads and branches into a root that has none
        has_dyn=deferred or any(r.loads or r.branches for r in root_rows),
    )
    grown = _Tree(start, treatment, [root_fall] if cut else [])

    def side_exit(rets, target, path, depth, called):
        """What the side exit to ``target``, under return stack ``rets``,
        becomes: the loop edge, the inlined continuation, or an exit when
        the root is no loop head, the target closes a non-root cycle or,
        on a path that ``called`` into a followed call, heads a compiled
        loop (no copy of its body), the growth budget/depth is exhausted,
        nothing translates there, or (last: pruned) no entry reached it."""
        if target == start and not rets:
            return _LOOP
        if (
            not deferred
            or depth >= tree_depth
            or (target, rets) in path
            or (called and target in loops)
            or grown.size >= tree_budget
            or not (0 <= target < len(code) and _translatable(code[target]))
        ):
            return _EXIT
        if heat is not None and not heat.get(target):
            grown.pruned.append(target)
            return _PRUNED
        items, frames, fall, sub_cut = _decode_trace(
            code, target, min(cap, tree_budget - grown.size), heat,
            rets=rets, calls=calls,
        )
        if sub_cut:
            grown.pruned.append(fall)
        path = path | {(target, rets)}
        return trace(items, frames, fall, path, depth + 1, called)

    pending = deque()

    def trace(items, frames, fall, path, depth, called=False):
        # breadth-first: an arm is grown, and charged to the budget, before
        # any deeper one, so the shallowest path to a call site follows it
        grown.size += len(items)
        node = _Trace(items, frames, fall)
        for index, (ip, ins) in enumerate(items):
            called = called or bool(frames[index])
            target = _side_target(ip, ins)
            if target is not None:
                pending.append((node, index, target, path, depth, called))
        if fall is not None:
            grown.fallthroughs.append(fall)
        return node

    grown.root = trace(root_items, root_frames, root_fall, {(start, ())}, 0)
    while pending:
        node, index, *arm = pending.popleft()
        node.exits[index] = side_exit(node.frames[index], *arm)
    return grown


# The L1 geometry an inlined MRU test folds in: an address's line, and
# the mask of its set.  Two offsets off one base no farther apart than
# _L1_REACH (a way less a line) are on one line or in different L1 sets:
# neither displaces the other.
_LINE_BITS = costs.CACHE_LINE.bit_length() - 1
_L1_SETS = costs.L1_SIZE // (costs.CACHE_LINE * costs.L1_WAYS) - 1
_L1_REACH = _L1_SETS << _LINE_BITS


class _Facts:
    """What one path of a tree has established about addresses
    (``docs/SIMULATOR.md``, "What a trace knows").  ``valid``: base
    register -> an offset whose guard passed while the register stood
    unwritten.  ``near``: offsets off ``base`` whose lines are first in
    their L1 sets — ``CacheLevel.access`` leaves the touched line there.
    ``disp``: the stack pointer less its value at entry (None once written
    other than by ``addi sp, sp, k``); while it is known, offsets off it
    are noted from the entry frame, so facts survive a balanced call."""

    def __init__(self, valid=(), base=None, near=(), disp=0):
        self.valid, self.base, self.near = dict(valid), base, set(near)
        self.disp = disp

    def copy(self) -> "_Facts":
        return _Facts(self.valid, self.base, self.near, self.disp)

    def access(self, base: int, offset: int) -> tuple:
        """Note an access to ``[base + offset]``; what was known ahead
        of it — ``validated``: its guard passes, ``resident``: an L1 MRU
        hit — and its ``slot``, its offset (maybe negative) in the frame
        the function was entered with (None: not one)."""
        framed = base == REG_SP and self.disp is not None
        if framed:
            offset += self.disp
        low = self.valid.get(base)
        validated = low is not None and offset >= low and not offset - low & 7
        if not validated:
            self.valid[base] = offset
        if base != self.base:
            # lines reached through another register may share any set
            self.base, self.near = base, set()
        resident = offset in self.near
        if not resident:
            self.near = {
                k for k in self.near if abs(k - offset) <= _L1_REACH
            } | {offset}
        slot = offset if framed and not offset & 7 else None
        return validated, resident, slot

    def move(self, k: int) -> None:  # addi sp, sp, k
        if self.disp is None:
            self.kill(REG_SP)
        else:
            self.disp += k

    def kill(self, reg: int) -> None:
        self.valid.pop(reg, None)
        if reg == self.base:
            self.base = None
        if reg == REG_SP:
            self.disp = None


def _measure(tree: _Tree) -> _Tree:
    """One walk of a grown tree for what emit must know before it writes
    line 1 — registers ``used`` (read or written) and ``written``, the
    most instructions any one path retires (``max_k``), whether a path
    touches memory (``mem``), closes the ``loop``, has check, fault or
    settle sites (``faults``), the ``branch_ips`` whose 2-bit counters a
    deferred loop keeps in locals — for the path-static totals
    (``_Trace.at``, ``spent``) and the address facts (``_Trace.known``:
    an inlined arm starts from a copy of its branch's, nothing flows
    back to the fall-through).  ``slots``:
    the frame offsets a loop function binds once, ahead of the loop —
    none if a path takes the loop edge with the stack pointer moved
    (``_Facts.disp`` not 0), or if no slot is accessed twice (binding
    spares a once-touched slot's access a shift and a mask, and costs
    two lines).

    Check sites (``_Trace.checks``) cut paths into *segments* of at
    most ``FAST_VM_MAX_BLOCK`` static countdown events; ``bounds`` holds
    each one's most, and ``bound``, the first's, is what admission and
    the loop edge compare the countdown with.

    Registers are cached in Python locals (``r5`` for ``regs[5]``) for
    the whole block: nothing outside the block can observe ``regs``
    while it runs, so reads/writes stay private until an exit.  Every
    used register is loaded up front (so early error exits can write
    back unconditionally) and every *written* register is written back
    by the one tail.
    """
    deferred, mode = tree.treatment.deferred, tree.treatment.mode
    used, written, branch_ips, slots = set(), set(), set(), []
    bounds = tree.bounds = [0]
    tree.max_k = 0
    tree.mem = tree.loop = tree.faults = False
    moved_edges = []  # loop edges taken with the stack pointer moved

    def walk(trace, facts, seg, events, k0, cycles, loads, stores, branches):
        """``k0``/``cycles``/``loads``/``stores``/``branches`` carry the
        retired-count, statically-known cycles, memory-op and
        conditional-branch counts accumulated on the path into this
        trace, so ways out hand the tail absolute totals; ``events``, the
        static countdown events spent in segment ``seg``."""
        at, exits = trace.at, trace.exits
        for index, (ip, ins) in enumerate(trace.items):
            op = ins[0]
            row = _OPS[op]
            if events + row.events[mode] > costs.FAST_VM_MAX_BLOCK:
                at[index] = (k0 + index, cycles, loads, stores, branches)
                trace.checks.add(index)
                tree.faults = True
                bounds[seg] = max(bounds[seg], events)
                seg, events = len(bounds), 0
                bounds.append(0)
            events += row.events[mode]
            if row.loads or row.stores:
                known = facts.access(ins[2 if row.loads else 1], ins[3])
                trace.known[index] = known
                if known[2] is not None:
                    slots.append(known[2])
            for slot in row.reads:
                used.add(ins[slot])
            if op == Opcode.ADDI and ins[1] == ins[2] == REG_SP:
                written.add(REG_SP)
                facts.move(ins[3])
            else:
                for slot in row.writes:
                    written.add(ins[slot])
                    facts.kill(ins[slot])
            if row.pair:
                used.update(ins[3])
            settles = mode in row.settles
            if settles:
                trace.spent[index] = (seg, events)
            if row.faults or settles:
                tree.faults = True
            elif op not in TERMINATOR_OPS:
                cycles += row.cycles
                continue
            at[index] = (k0 + index, cycles, loads, stores, branches)
            if deferred or not row.branches:
                # (a branch outside a deferred loop pays its cycles
                # dynamically, ``_bc``, and counts itself into the
                # predictor as it retires)
                cycles += row.cycles
                loads += row.loads
                stores += row.stores
                if row.branches:
                    branches += 1
                    branch_ips.add(ip)
            # what a way out taken here has retired
            at[index + 1] = (k0 + index + 1, cycles, loads, stores, branches)
            child = exits.get(index)
            if child is _LOOP:
                tree.loop = True
                if facts.disp != 0:
                    moved_edges.append(ip)
            elif child.__class__ is _Trace:
                walk(child, facts.copy(), seg, events, *at[index + 1])
        k_end = k0 + len(trace.items)
        at[len(trace.items)] = (k_end, cycles, loads, stores, branches)
        # every trace ends in a way out, so its last totals are its largest
        tree.max_k = max(tree.max_k, k_end)
        bounds[seg] = max(bounds[seg], events)
        tree.mem = tree.mem or loads + stores > 0

    walk(tree.root, _Facts(), 0, 0, 0, 0, 0, 0, 0)
    tree.bound = bounds[0]
    tree.used, tree.written = used | written, written
    tree.branch_ips = branch_ips
    held = tree.loop and not moved_edges and len(set(slots)) < len(slots)
    tree.slots = sorted(set(slots)) if held else []
    return tree


class _Writer:
    """The pen of :func:`_emit`: final lines, written front to back at a
    known indent — a line's number is the length of ``out`` as it is
    written, so a site goes straight into ``table``."""

    def __init__(self, tree: _Tree):
        t = tree.treatment
        self.tree, self.t = tree, t
        self.out: list[str] = []
        self.table: dict[int, tuple] = {}
        self.wb_regs = [f"regs[{i}] = r{i}" for i in sorted(tree.written)]
        self.wb_predictor = ["predictor.mispredicts += _pm"] + [
            f"if _h{bip} != _hs{bip}: _pc[{bip}] = _h{bip}"
            for bip in sorted(tree.branch_ips)
        ]
        # where the countdown lives while the function runs
        self.countdown = "_cd" if t.deferred else "m._countdown"
        # the loop edge's admission check, as the driver would make it
        # (only a loop head, which defers, has a loop edge)
        check = f"_ib + _ins + {tree.max_k} > _maxi"
        if t.mode:
            check = f"_cd <= {tree.bound} or {check}"
        self.edge_check = check
        # a hoisted frame slot's locals are named after its offset
        self.slots = {k: str(k).replace("-", "m") for k in tree.slots}

    def paid(self, instr, cycles, loads) -> str:
        """What a path costs the countdown in this block's mode, as
        source text ("0": nothing); the arguments are the path's
        instruction, cycle and load totals."""
        by_mode = {"instr": instr, "cycles": cycles, "loads": loads}
        # (an L1 miss and a mispredict are paid as they happen)
        return str(by_mode.get(self.t.mode, 0))

    def add(self, ind: str, target: str, accumulator: str, amount) -> None:
        # a deferred loop folds its accumulator in too
        terms = f"{accumulator} + {amount}" if self.t.deferred else amount
        self.out.append(f"{ind}{target} += {terms}")

    def sync(self, ind: str, events="_fk") -> None:
        """Sync what a way out retired (``_fk``, ``_fc`` less ``cy``, ...)
        as the interpreter would have: registers and predictor state back,
        counters added, the countdown paid — ``events`` instructions in
        ``instr`` mode.  Once in the tail; in line ahead of a kernel call
        or a halt, whose one instruction ticks no event."""
        t, out = self.t, self.out
        if t.has_dyn:
            out.append(f"{ind}_fc += cy")
        out.extend([ind + ln for ln in self.wb_regs])
        if t.deferred:
            out.append(f"{ind}predictor.branches += _pb + _fb")
            out.extend([ind + ln for ln in self.wb_predictor])
        self.add(ind, "state.cycles", "_cyt", "_fc")
        self.add(ind, "state.instructions", "_ins", "_fk")
        if self.tree.mem:
            self.add(ind, "state.loads", "_ld", "_fl")
            self.add(ind, "state.stores", "_st", "_fs")
            self.add(ind, "caches.accesses", "_ld + _st", "_fl + _fs")
        self.pay(ind, self.paid(events, "_fc", "_fl"))

    def exit(self, ind: str, path, to, dyn=None) -> None:
        """A way out to ``to`` (an ip, or an expression giving one): what
        ``path`` has retired — plus ``dyn``, a local holding cycles not
        in ``cy`` — goes to the tail as data, and the tail syncs it."""
        k, cycles, loads, stores, branches = path
        if dyn:
            cycles = f"{cycles} + {dyn}" if cycles else dyn
        self.out += [
            f"{ind}_fk, _fc, _fl, _fs, _fb, _fm = "
            f"{k}, {cycles}, {loads}, {stores}, {branches}, {to}",
            f"{ind}break",
        ]

    def pay(self, ind: str, paid: str) -> None:
        if self.t.deferred and self.t.mode:
            # the countdown lives in ``_cd`` while the loop runs
            tail = f" - {paid}" if paid != "0" else ""
            self.out.append(f"{ind}m._countdown = _cd{tail}")
        elif paid != "0":
            self.out.append(f"{ind}m._countdown -= {paid}")

    def edge_acc(self, ind: str, path) -> None:
        """Deferred loop edge: fold the path's static totals into the
        function-local accumulators instead of syncing — the tail syncs
        them only if the admission re-check fails."""
        k, static, loads, stores, branches = path
        t, out = self.t, self.out
        out.append(f"{ind}_ins += {k}")
        for acc, amount in ("_ld", loads), ("_st", stores), ("_pb", branches):
            if amount:
                out.append(f"{ind}{acc} += {amount}")
        if not t.defer_cy:
            # (``cycles``) the iteration's cost, ``cy`` included, is paid
            # here, so ``cy`` starts again from 0
            out += [
                f"{ind}_t = cy + {static}", f"{ind}_cyt += _t",
                f"{ind}cy = 0",
            ]
        elif static:
            # ``cy`` rides across iterations; only the path's static
            # cycles fold into the accumulator here
            out.append(f"{ind}_cyt += {static}")
        paid = self.paid(k, "_t", loads)
        if paid != "0":
            out.append(f"{ind}_cd -= {paid}")

    def side_exit(self, what, target: int, ind: str, path, dyn=None) -> None:
        """Write what grow made of a side exit: the back edge — fold the
        path into the accumulators and re-run the driver's admission
        check, leaving for the tail with nothing more retired when it
        fails, else ``continue`` to the block start — the continuation,
        inlined, or an exit."""
        out = self.out
        if what is _LOOP:
            self.edge_acc(ind, path)
            out.append(f"{ind}if {self.edge_check}:")
            self.exit(ind + "    ", (0, 0, 0, 0, 0), self.tree.start)
            out.append(f"{ind}continue")
        elif what.__class__ is _Trace:
            if dyn:
                out.append(f"{ind}cy += {dyn}")
            self.trace(what, ind)
        else:
            self.exit(ind, path, target, dyn)

    def branch(self, what, ip: int, ins: tuple, ind: str, path, spent) -> None:
        """A conditional branch is a side exit: the taken arm leaves the
        trace (or inlines its continuation), the fall-through arm keeps
        executing."""
        op, d, a, _ = ins
        t, out, arm = self.t, self.out, ind + "    "
        cond = "==" if op == Opcode.BRZ else "!="
        # what a sample says of the branch when taken: its register != 0
        taken = op == Opcode.BRNZ
        if t.deferred:
            # Deferred: the 2-bit counter lives in a local (_h{ip}, loaded
            # once at entry, written back only on change at exits),
            # mispredicts accumulate in _pm, and the retired branch
            # *count* is path-static — it folds into sync/edge constants
            # instead of a per-branch increment.  The predictor update
            # is split per arm so the condition is tested exactly once.
            def counter(step, unsaturated, mispredicted):
                return [
                    f"{arm}_c = _h{ip}",
                    f"{arm}if _c {unsaturated}:",
                    f"{arm}    _h{ip} = _c {step}",
                    f"{arm}if _c {mispredicted}:",
                    f"{arm}    _pm += 1",
                    f"{arm}    cy += {costs.CYCLES_BRANCH_MISS}",
                    *([f"{arm}    _cd -= 1"] if t.mode == "brmiss" else []),
                ]

            # taken arm: mispredict iff the pre-update counter < 2;
            # update saturates upward at 3
            out += [f"{ind}if r{d} {cond} 0:", *counter("+ 1", "< 3", "< 2")]
            self.settle(arm + "    ", path, spent, (a, taken), ip)
            self.side_exit(what, a, arm, path)
            # not-taken arm: mispredict iff the pre-update counter
            # >= 2; update saturates downward at 0
            out += [f"{ind}else:", *counter("- 1", "> 0", ">= 2")]
            self.settle(arm + "    ", path, spent, (ip + 1, not taken), ip)
            return
        out += [
            f"{ind}_tk = r{d} {cond} 0",
            f"{ind}predictor.branches += 1",
            f"{ind}_cnt = predictor.counters.get({ip}, 1)",
            f"{ind}if _tk:",
            f"{ind}    if _cnt < 3:",
            f"{ind}        predictor.counters[{ip}] = _cnt + 1",
            f"{ind}else:",
            f"{ind}    if _cnt > 0:",
            f"{ind}        predictor.counters[{ip}] = _cnt - 1",
            f"{ind}if (_cnt >= 2) != _tk:",
            f"{ind}    predictor.mispredicts += 1",
            f"{ind}    _bc = {costs.CYCLES_BRANCH + costs.CYCLES_BRANCH_MISS}",
            *([f"{ind}    m._countdown -= 1"] if t.mode == "brmiss" else []),
        ]
        # one site for both arms (``_tk``), the cycles still in ``_bc``
        self.settle(
            arm, path, spent, ((ip + 1, not taken), (a, taken)), ip,
            dyn=costs.CYCLES_BRANCH + costs.CYCLES_BRANCH_MISS,
        )
        out += [
            f"{ind}else:",
            f"{ind}    _bc = {costs.CYCLES_BRANCH}",
            f"{ind}if _tk:",
        ]
        self.side_exit(what, a, arm, path, "_bc")
        out.append(f"{ind}cy += _bc")

    def site(self, offset: int, message, retired, ip, fo=None) -> None:
        """A site ``offset`` lines past the next one written: what had
        ``retired`` there (and, in a function that hoists frame slots,
        the offset ``fo`` off r15 a slot's access used) the tail reads."""
        self.table[len(self.out) + 1 + offset] = (
            *retired, message, ip, *((fo,) if self.slots else ())
        )

    def check(self, ind: str, path, ip) -> None:
        """A check site ahead of the item at ``ip``: unless the countdown,
        less what ``path`` (the totals before the item) has paid, still
        exceeds ``FAST_VM_MAX_BLOCK``, hand ``ip`` over untouched."""
        paid = int(self.paid(*path[:3]))
        dyn = " - cy" if self.t.mode == "cycles" and self.t.has_dyn else ""
        self.site(0, (ip, None), path, ip)
        self.out.append(
            f"{ind}if {self.countdown}{dyn} <= "
            f"{costs.FAST_VM_MAX_BLOCK + paid}: raise _Fault"
        )

    def settle(self, ind: str, path, spent, after, ip, fo=None, dyn=0) -> None:
        """A settle site, in the arm where a dynamic cost just landed:
        unless the countdown still exceeds the static events left on the
        longest way on to the next check — its segment's bound less those
        ``spent``, a pair ``(segment, spent)`` (None: nothing settles in
        this mode) — leave through the tail.  ``path`` is what has
        retired *with* the instruction, ``dyn`` the cycles of it not in
        ``cy`` yet; ``after`` stands in the table where a fault's message
        does: ``(next ip, what a sample says of the branch)``, or a pair
        of them by ``_tk``."""
        if spent is None:
            return
        k, cycles, *counts = path
        if self.t.mode == "cycles":
            # the pass's cycles reach the countdown at its next sync
            seg, spent = spent
            left = self.tree.bounds[seg] - spent
            due = f"{self.countdown} - cy <= {left + cycles + dyn}"
        else:  # the miss, the mispredict: the event itself, already paid
            due = f"{self.countdown} <= 0"
        self.site(0, after, (k, cycles + dyn, *counts), ip, fo)
        self.out.append(f"{ind}if {due}: raise _Fault")

    def access(
        self, known, ins: tuple, ind: str, retired, path, spent, ip
    ) -> None:
        """A LOAD or STORE, less what the path had established.  The
        address check is one guard, gone once the base is ``validated``;
        the access runs bare — its IndexError is the out-of-bounds fault,
        told apart from the guard's by the line it came from — and a
        ``resident`` line is neither a site nor looked up in L1.  The
        lookup inlines the MRU test; the L1-hit latency is in the static
        cycles, so only a true miss calls out (a load then charges the
        latency *difference*) — and is where a load settles.  A hoisted
        ``slot`` reads its word, line and set from the preamble's locals
        (the slot is counted from the entry frame, the access's offset
        from the stack pointer as it stands)."""
        validated, resident, slot = known
        op, d, a, b = ins
        load, out, hit = op == Opcode.LOAD, self.out, costs.LAT_L1
        (_, unaligned), (_, outside) = _OPS[op].faults
        addr = f"r{a if load else d}" + (f" + {b}" if b else "")
        if not validated:
            self.site(0, unaligned, retired, ip)
            out.append(f"{ind}if (_x := {addr}) & 7 or _x < 8: raise _Fault")
        if slot in self.slots:
            word = f"_w + {slot >> 3}" if slot else "_w"
            name = self.slots[slot]
            mru = f"_mru[_s{name}] != _n{name}"
            fo, touched = b, addr  # (off r15 as it stands, for the tail)
        else:
            fo, touched = None, "_x"
            mru = f"_mru[(_ln := _x >> {_LINE_BITS}) & {_L1_SETS}] != _ln"
            word = (
                "_x >> 3" if not validated
                else f"({addr}) >> 3" if resident
                else f"(_x := {addr}) >> 3"
            )
        if not resident:
            self.site(0, outside, retired, ip, fo)
        out.append(
            f"{ind}r{d} = words[{word}]" if load
            else f"{ind}words[{word}] = r{a}"
        )
        if resident:
            return
        out.append(f"{ind}if {mru}:")
        if not load:
            out.append(f"{ind}    _acc({touched})")
            return
        ind += "    "
        if self.t.mode != "l1":
            out.append(f"{ind}cy += _acc({touched}) - {hit}")
        else:  # (the miss is the event)
            out += [f"{ind}_c = _acc({touched})", f"{ind}cy += _c - {hit}"]
            out += [f"{ind}if _c > {hit}:", f"{ind}    {self.countdown} -= 1"]
            ind += "    "
        self.settle(ind, path, spent, (ip + 1, None), ip, fo)

    def trace(self, trace: _Trace, ind: str) -> None:
        """Write one trace of the tree at indent ``ind``; recursion
        happens at inlined exits, at the indent of their arm."""
        out, at = self.out, trace.at
        # a CALL or RET that does not end the trace was followed
        last = len(trace.items) - 1 if trace.fall is None else None
        for index, (ip, ins) in enumerate(trace.items):
            op = ins[0]
            row = _OPS[op]
            if index in trace.checks:
                self.check(ind, at[index], ip)
            if not (row.faults or op in TERMINATOR_OPS):
                if row.shift:
                    ins = ins[:3] + (ins[3] & 63,)
                for line in row.lines:
                    out.append(ind + line.format(*ins))
                continue
            # An error site (a guard's ``raise _Fault``, or an access
            # whose ``IndexError`` is the error): the path-static totals
            # — ``k`` instructions including the faulting one, the cycles
            # before it — go into the site table the tail reads, keyed
            # by the line about to be written.
            k, *before = at[index]
            d, path, retired = ins[1], at[index + 1], (k + 1, *before)
            spent = trace.spent.get(index)
            if row.loads or row.stores:
                known = trace.known.get(index, (False, False, None))
                self.access(known, ins, ind, retired, path, spent, ip)
                continue
            for offset, message in row.faults:
                self.site(offset, message, retired, ip)
            if row.lines:
                out.extend([ind + line.format(*ins) for line in row.lines])
            elif op == Opcode.JMP:
                # a folded forward jump stays inside the trace: only the
                # branch cycle is charged
                if d <= ip:
                    self.side_exit(trace.exits[index], d, ind, path)
            elif op == Opcode.BRZ or op == Opcode.BRNZ:
                self.branch(trace.exits[index], ip, ins, ind, path, spent)
            elif op == Opcode.CALL:
                # the interpreter charges the call's cycles before it
                # checks the depth, but ticks the countdown only after;
                # followed, the machine's call stack stays live for a
                # sample or a fault in the callee to see
                out += [
                    f"{ind}m.call_stack.append({ip + 1})",
                    f"{ind}if len(m.call_stack) > 256:",
                    f"{ind}    state.cycles += {costs.CYCLES_CALL}",
                    f"{ind}    raise _Fault",
                ]
                if index == last:
                    self.exit(ind, path, d)
            elif op == Opcode.RET:
                if index == last:
                    self.exit(ind, path, "m.call_stack.pop()")
                else:
                    out.append(f"{ind}m.call_stack.pop()")
            else:
                # KCALL and HALT retire without charging cycles or ticking
                # the instruction-event countdown (the interpreter
                # `continue`s past that code), and sync in line: the
                # kernel runs on the synced machine and accounts for its
                # own work
                totals = ", ".join(map(str, path))
                out.append(f"{ind}_fk, _fc, _fl, _fs, _fb = {totals}")
                self.sync(ind, path[0] - 1)
                out += [
                    f"{ind}if m.kernel is None:",
                    f"{ind}    raise VMError('kernel call"
                    f" without a kernel', {ip})",
                    f"{ind}m.kernel.call(m, {d})",
                    f"{ind}return {ip + 1}",
                ] if op == Opcode.KCALL else [
                    f"{ind}m.call_stack.pop()", f"{ind}return -1",
                ]
        if trace.fall is not None:
            # trace ended at the size cap, an untranslatable instruction,
            # a cold cut or the end of the code image: hand the
            # continuation ip back to the driver (a chained continuation
            # block, or the interpreter)
            self.exit(ind, at[len(trace.items)], trace.fall)

    def epilogue(self) -> None:
        """The one tail of every way out of the body: an exit ``break``s
        out of the body's ``while True:`` with its totals as data, a site
        raises and ``_T`` — a default the Translation supplies, never
        parsed — has them by source line (an exception from any other
        line, an empty call stack's ``pop``, goes on untouched).  After
        the sync, ``_fm`` says where to go: an exit's next ip; at a
        settle site the instruction has retired, the sample is taken if
        it is due and the driver carries on from the next ip; at a check
        site nothing has retired nor is a sample due, and the driver
        carries on from its ip; a fault's message is raised, the
        countdown paid for what retired *before* it, as the interpreter
        does."""
        t, out = self.t, self.out
        kinds = {entry[5].__class__ for entry in self.table.values()}
        # the address: ``_x``, or rebuilt for a hoisted slot's access
        addr = "_x"
        if self.slots:
            addr += f" if _fo is None else r{REG_SP} + _fo"
        if self.tree.faults:
            out += [
                "    except (_Fault, IndexError) as _f:",
                "        if (_ft := _T.get(_f.__traceback__.tb_lineno))"
                " is None:",
                "            raise",
                "        _fk, _fc, _fl, _fs, _fb, _fm, _fi"
                f"{', _fo' if self.slots else ''} = _ft",
            ]
            if str in kinds and self.tree.mem:
                # (no settle site's ``_fm``, a tuple, holds a "%")
                out += [
                    '        if "%" in _fm:', f"            _fm %= {addr}",
                ]
        self.sync("    ")
        # (with no site, every way out is an exit)
        test = "if _fm.__class__ is int: " if kinds else ""
        out.append(f"    {test}return _fm")
        if tuple in kinds:
            # a load's sample carries its address, a branch's which way (a
            # check's is never due)
            by_tk = "        if _fm[0].__class__ is tuple: _fm = _fm[_tk]"
            out += [
                "    if _fm.__class__ is tuple:",
                *([] if t.deferred else [by_tk]),
                "        if m._countdown <= 0:",
                f"            m._take_sample(_fi, ({addr}) if _fm[1] is None"
                " else None, branch=_fm[1])",
                "        return _fm[0]",
            ]
        if str in kinds:
            if t.mode == "instr":
                # a fault's instruction counts but ticks no event
                out.append("    m._countdown += 1")
            out.append("    raise VMError(_fm, _fi)")


def _emit(tree: _Tree) -> tuple[str, dict]:
    """Write a measured tree as one block function, in one forward pass;
    returns the source and its sites: a source line to what had retired
    there, and the error (or, at a settle site, the way on)."""
    t = tree.treatment
    writer = _Writer(tree)
    out = writer.out
    out.append(
        f"def _b{tree.start}(m, regs, words, state, caches, predictor, _T=_T):"
    )
    if tree.mem:
        # The L1 MRU-hit test is inlined at every memory op; anything else
        # (LRU move, miss, allocation) calls back into the hierarchy so
        # cache state stays bit-identical to the interpreter's.
        out += [
            "    _mru = caches.l1.mru", "    _acc = caches.access_uncounted",
        ]
    if tree.loop:
        out.append("    _maxi = state.max_instructions")
    # load every used register up front: the tail writes the full written
    # set back unconditionally, so all the locals must be bound from the
    # start
    out.extend(f"    r{i} = regs[{i}]" for i in sorted(tree.used))
    if tree.slots:
        # the frame stands still while the loop runs: its word index, and
        # each slot's line and L1 set, are bound once
        out.append(f"    _w = r{REG_SP} >> 3")
    for slot, name in writer.slots.items():
        addr = f"(r{REG_SP} + {slot})" if slot else f"r{REG_SP}"
        out.append(f"    _n{name} = {addr} >> {_LINE_BITS}")
        out.append(f"    _s{name} = _n{name} & {_L1_SETS}")
    if t.deferred:
        if tree.branch_ips:
            out += ["    _pc = predictor.counters", "    _pg = _pc.get"]
            for ip in sorted(tree.branch_ips):
                out += [f"    _h{ip} = _pg({ip}, 1)", f"    _hs{ip} = _h{ip}"]
        out += [
            *(f"    {acc} = 0" for acc in "_pm _pb _ins _cyt _ld _st".split()),
            "    _ib = state.instructions",
        ]
        if t.mode:
            out.append("    _cd = m._countdown")
    if t.has_dyn:
        # (a ``cycles`` loop pays its iteration's ``cy`` at the edge and
        # starts it again from 0; others let it ride across iterations)
        out.append("    cy = 0")
    ind = "    "
    if tree.faults:
        out.append(f"{ind}try:")
        ind += "    "
    # every way out ``break``s from here to the tail (a loop head's edge
    # ``continue``s)
    out.append(f"{ind}while True:")
    writer.trace(tree.root, ind + "    ")
    writer.epilogue()
    return "\n".join(out) + "\n", writer.table
