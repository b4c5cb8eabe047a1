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
- the static cycle cost and instruction count are folded into per-block
  constants applied once at block exit,

while everything *dynamic* keeps exact per-access accounting: loads and
stores still walk the cache hierarchy, conditional branches still train
the 2-bit predictor, and error paths re-materialize the precise
``MachineState`` the interpreter would have produced (same message, same
ip, same counter values, same PMU countdown).  An error site is a bare
guard or a bare access; what had retired there is data — a table keyed
by source line, read by the function's one fault epilogue.

Sampling exactness is preserved by a conservative *event bound* computed
per block and per PMU event: the worst-case number of countdown events
the block can generate.  The driver only enters a block when the live
countdown strictly exceeds that bound, so a sample can never fall due
mid-block; when the check fails, the interpreter finishes the sampling
window (see ``Machine._run_fast``), which keeps sample streams
bit-identical to pure interpretation.

Translation gets more aggressive where the countdown allows it: traces
rooted at loop heads inline their side-exit continuations into superblock
*trees* (bounded by ``_TREE_BUDGET`` and ``_TREE_DEPTH``), and a branch
back to the trace's own head closes the loop inside the compiled function
— after re-checking the instruction budget (and, armed, the countdown)
exactly as the driver would — so hot loops run without returning to the
dispatch loop at all.  Armed, tree growth is additionally capped by
``bound_cap`` — a worst-case-event allowance of ``period // 8`` — so the
admission check still passes for almost the whole sampling window.

Translations are cached on the Program object, keyed by the sampled event
and the armed bound cap (the countdown bookkeeping is specialized per
event), so the morsel workers of one query share one translation — its
heat, and a block one of them compiled is compiled for all.

Tier 2 is a state of that same translation, not a second map
(``docs/TIERING.md``).  While a :class:`~repro.vm.tiering.TieringController`
watches a tier-1 translation, block entries are counted into ``entries``
and retired instructions into ``retired``; past the threshold
:meth:`Translation.promote` re-stubs ``blocks`` *in place* with the
tier-2 emit settings.  Tier-2 loop heads use *deferred sync*: counters,
predictor state and the PMU countdown live in Python locals across
iterations, and the exact interpreter-visible state is flushed at real
exits and when the edge check fails (a sampling window or the budget
about to end).  *Same-line memoization* skips the L1 set lookup for a
repeat access to the previous memory op's line, and *hot-block trees*
grow where ``entries`` marks a block entered hundreds of times per run
without a closed loop.  Nothing speculates, so nothing ever demotes.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter

from repro.errors import VMError
from repro.vm import costs
from repro.vm.isa import Opcode, Program, TERMINATOR_OPS, block_leaders
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
# function and inlining depth of side-exit continuations.  Armed
# translations additionally cap the tree's worst-case event bound at
# ``bound_cap`` so it stays small against the sampling countdown.
_TREE_BUDGET = 1536
_TREE_DEPTH = 8

# Segment length of the armed cycles-mode linear fallback: the driver
# admits the block on the *first* segment's worst-case bound only, and
# the block re-checks the live countdown before every further segment.
# Cycles is the one event whose worst-case bound (every load misses to
# memory) towers over the typical cost, so whole-block admission would
# hand the last ~worst-case-bound stretch of every sampling window to
# the interpreter; segmentation shrinks that tail to one segment.
_FALLBACK_SEG = 8

# worst-case cycle cost per opcode, for the CYCLES event bound
_WORST_CYCLES = {
    Opcode.LOAD: costs.LAT_MEM,
    Opcode.STORE: costs.CYCLES_STORE,
    Opcode.MUL: costs.CYCLES_MUL,
    Opcode.MULI: costs.CYCLES_MUL,
    Opcode.SDIV: costs.CYCLES_DIV,
    Opcode.SREM: costs.CYCLES_DIV,
    Opcode.FDIV: costs.CYCLES_DIV,
    Opcode.CRC32: costs.CYCLES_CRC32,
    Opcode.JMP: costs.CYCLES_BRANCH,
    Opcode.BRZ: costs.CYCLES_BRANCH + costs.CYCLES_BRANCH_MISS,
    Opcode.BRNZ: costs.CYCLES_BRANCH + costs.CYCLES_BRANCH_MISS,
    Opcode.CALL: costs.CYCLES_CALL,
    Opcode.RET: costs.CYCLES_RET,
    Opcode.KCALL: 0,  # the kernel accounts for itself via advance_external
    Opcode.HALT: 0,   # returns before any cost is charged
}

_SIMPLE_BINOPS = {
    Opcode.ADD: "+", Opcode.SUB: "-", Opcode.AND: "&",
    Opcode.OR: "|", Opcode.XOR: "^",
}
_CMP_OPS = {
    Opcode.CMPEQ: "==", Opcode.CMPNE: "!=", Opcode.CMPLT: "<",
    Opcode.CMPLE: "<=", Opcode.CMPGT: ">", Opcode.CMPGE: ">=",
}
_CMP_IMM_OPS = {
    Opcode.CMPEQI: "==", Opcode.CMPNEI: "!=", Opcode.CMPLTI: "<",
    Opcode.CMPLEI: "<=", Opcode.CMPGTI: ">", Opcode.CMPGEI: ">=",
}

_KNOWN_OPS = (
    set(_SIMPLE_BINOPS) | set(_CMP_OPS) | set(_CMP_IMM_OPS) | set(_WORST_CYCLES)
    | {
        Opcode.NOP, Opcode.MOV, Opcode.MOVI, Opcode.ADDI, Opcode.ANDI,
        Opcode.SHLI, Opcode.SHRI, Opcode.XORI, Opcode.SHL, Opcode.SHR,
        Opcode.ROTR, Opcode.CVTIF, Opcode.CVTFI, Opcode.SELECT,
        Opcode.MIN, Opcode.MAX,
    }
)


class _Fault(Exception):
    """Raised bare by a compiled block's guard; the raising line says
    which error site it was to the same function's fault epilogue — it
    never leaves a block function."""


# A stub admits unconditionally: it retires zero instructions, and its
# event bound sits below any live countdown (the countdown is >= 1 at
# every instruction boundary — a sample re-arms it the moment it hits 0).
_STUB_BOUND = -1


class Translation:
    """The block map of one program for one PMU event mode.

    ``blocks`` maps a leader ip to ``(fn, n_instructions, event_bound,
    fallback)``; ``fn(machine, regs, words, state, caches, predictor)``
    executes the block and returns the next ip (negative = the run is
    complete).  ``fallback`` is ``None``, or a linear
    ``(fn, n_instructions, event_bound)`` variant of the same leader with
    a much smaller bound, which the driver runs when the live countdown
    is too low to admit an armed superblock tree — so only the last few
    hundred events before each sample interpret.

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
    ``costs.FAST_VM_REGROW_LIMIT`` a root compiles unpruned.

    The translation also owns the program's tier: ``retired`` and
    ``entries`` are the tier-1 profile a tiering controller feeds, and
    :meth:`promote` turns every entry of ``blocks`` back into a stub that
    compiles with the tier-2 settings.  The dict object never changes,
    so every machine built on this translation follows.
    """

    def __init__(
        self, program: Program, event: Event | None, bound_cap: int = 0
    ):
        self.code = program.code
        self.code_len = len(self.code)
        self.tier = 1
        self.retired = 0  # instructions observed while at tier 1
        # block entries at tier 1 under a controller; nothing counts once
        # the tier is 2, so promotion freezes it as the hot-block profile
        self.entries: dict[int, int] = {}
        self.hot_blocks = 0  # entries at or over the hot mark, at promotion
        self.hot_entries = costs.FAST_VM_HOT_ENTRIES  # tests, oracle: 1
        self.heat: dict[int, int] = {}
        self.interpreted = 0  # cold entries the interpreter ran
        self.pruned: dict[int, set[int]] = {}
        self.regrown: dict[int, int] = {}
        self.compiled: set[int] = set()  # leaders compiled in the current map
        self.source_lines = 0
        self.compile_s = 0.0
        self._emit = _emit_settings(_MODES[event], bound_cap, 1, self.entries)
        # machine.py imports this module lazily, so the reverse import
        # here cannot form a cycle at module-load time
        from repro.vm.machine import crc32_mix

        self._namespace = {
            "VMError": VMError, "crc32_mix": crc32_mix, "_Fault": _Fault,
        }
        self._leaders = block_leaders(program)
        self.blocks = {ip: self._stub(ip) for ip in self._leaders}
        self.leaders = len(self.blocks)

    def stale_for(self, program: Program) -> bool:
        return (
            self.code is not program.code
            or self.code_len != len(program.code)
        )

    def promote(self) -> None:
        """Tier 1 -> tier 2, in place.  Only between machine calls: no
        block function is on the host stack, so no caller can be left
        holding an entry of the old map.  Heat stays; what the tier-1
        trees left out goes with them (a stale pruned exit would re-stub
        a tier-2 root for an arm it never pruned)."""
        self.tier = 2
        self.hot_blocks = sum(
            1 for n in self.entries.values()
            if n >= costs.TIER2_HOT_BLOCK_ENTRIES
        )
        self._emit = _emit_settings(
            self._emit["mode"], self._emit["bound_cap"], 2, self.entries
        )
        for book in (self.compiled, self.pruned, self.regrown, self.blocks):
            book.clear()
        self.blocks.update((ip, self._stub(ip)) for ip in self._leaders)

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
        """The tier decision and what translation cost so far: the tier,
        instructions observed toward it, hot blocks its profile marked;
        static leaders, blocks compiled in the current map, cold entries
        run interpreted, exits its trees leave out and times a root was
        compiled again; source lines and host seconds over both tiers."""
        return {
            "tier": self.tier,
            "retired": self.retired,
            "hot_blocks": self.hot_blocks,
            "leaders": self.leaders,
            "compiled": len(self.compiled),
            "interpreted": self.interpreted,
            "pruned_exits": sum(map(len, self.pruned.values())),
            "regrown": sum(self.regrown.values()),
            "source_lines": self.source_lines,
            "compile_s": round(self.compile_s, 6),
        }

    def cold_entry(self, ip: int, machine) -> bool:
        """Count one interpreted entry of the stub at ``ip``; False, and
        nothing counted, for the entry that makes it hot (the stub's)."""
        heat = self.heat.get(ip, 0) + 1
        if heat >= self.hot_entries:
            return False
        self.heat[ip] = heat
        self.interpreted += 1
        if machine._counting_entries:
            self.entries[ip] = self.entries.get(ip, 0) + 1
        return True

    def _stub(self, ip: int) -> tuple:
        return (partial(self._enter, ip), 0, _STUB_BOUND, None)

    def _enter(self, ip, machine, *_):
        if machine._counting_entries:
            # the driver counted this dispatch; whoever runs the block —
            # the interpreter, or the driver's re-dispatch — counts again
            self.entries[ip] -= 1
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
        emit = self._emit
        mode, bound_cap = emit["mode"], emit["bound_cap"]
        heat = self.heat
        if self.regrown.get(ip, 0) >= costs.FAST_VM_REGROW_LIMIT:
            heat = None  # regrown to the limit: compile whole
        emitted = _emit_block(self.code, ip, heat=heat, **emit)
        if emitted is None:
            del self.blocks[ip]
            return None
        source, n_instr, bound, fallthroughs, pruned, sites = emitted
        linear = None
        if mode and bound_cap:
            # the armed tree's bound keeps it out of the last stretch of
            # every sampling window; give the driver a linear variant
            # with a tight bound to run there instead of interpreting
            # (always at the short tier-1 cap); both compile as one
            # source, so its fault lines number on from the tree's
            linear = _emit_block(
                self.code, ip, costs.FAST_VM_MAX_BLOCK, mode, suffix="f",
                heat=heat, line0=source.count("\n"),
            )
            if linear is not None and linear[2] < bound:
                source += linear[0]
                fallthroughs = fallthroughs + linear[3]
                pruned = pruned + linear[4]
                sites.update(linear[5])
            else:
                linear = None
        # the functions bind ``_T``, their fault sites, as they are defined
        namespace = self._namespace
        namespace["_T"] = sites
        exec(compile(source, f"<fastvm:{mode or 'plain'}>", "exec"), namespace)
        entry = (
            namespace.pop(f"_b{ip}"), n_instr, bound,
            (namespace.pop(f"_b{ip}f"), linear[1], linear[2])
            if linear is not None
            else None,
        )
        self.blocks[ip] = entry
        for fall in fallthroughs:
            # a path that hands control back mid-straight-line-code (size
            # cap, untranslatable instruction) continues in a block of
            # its own, so long arithmetic runs never drop to the
            # interpreter
            if fall not in self.blocks:
                self.blocks[fall] = self._stub(fall)
        self.pruned[ip] = set(pruned)
        self.compiled.add(ip)
        self.source_lines += source.count("\n")
        return entry


def _emit_settings(mode: str, bound_cap: int, tier: int, entries: dict) -> dict:
    """The :func:`_emit_block` arguments of one translation at ``tier``."""
    # armed translations cap trace length so worst-case event bounds stay
    # well under the countdown; unarmed ones have no countdown to protect
    cap = costs.FAST_VM_MAX_BLOCK if mode else costs.FAST_VM_MAX_BLOCK_PLAIN
    if tier >= 2 and mode and bound_cap:
        # What admission actually protects is the worst-case *event*
        # bound, not the instruction count — tier-2 armed roots therefore
        # decode at the plain cap and _emit_block trims them back by
        # event bound.  A loop body longer than the tier-1 cap can then
        # still close into an in-function loop instead of paying a driver
        # dispatch per iteration.
        cap = costs.FAST_VM_MAX_BLOCK_PLAIN
    # tier-2 trees may grow much larger: their compile time is only paid
    # for blocks the profile already proved hot *and* the run re-enters
    return dict(
        cap=cap, mode=mode, bound_cap=bound_cap, tier=tier, entries=entries,
        tree_budget=costs.TIER2_TREE_BUDGET if tier >= 2 else _TREE_BUDGET,
        tree_depth=costs.TIER2_TREE_DEPTH if tier >= 2 else _TREE_DEPTH,
    )


def translation_for(program: Program, pmu_config=None) -> Translation:
    """Return the one (cached) translation of ``program`` for machines
    armed with ``pmu_config`` (None: unarmed).  Nothing compiles here.

    Armed translations may grow superblock trees up to a worst-case
    event bound of 1/8 of the period: that keeps the driver's admission
    check passing for ~7/8 of every sampling window (larger caps inflate
    the per-pass bound that gates loop re-entry and measure slower)."""
    cache = getattr(program, "_vm_translations", None)
    if cache is None:
        cache = {}
        program._vm_translations = cache
    key = (
        (pmu_config.event, pmu_config.period >> 3)
        if pmu_config is not None else (None, 0)
    )
    entry = cache.get(key)
    if entry is None or entry.stale_for(program):
        entry = Translation(program, *key)
        cache[key] = entry
    return entry


def _translatable(ins: tuple) -> bool:
    """True when the instruction's operands fit the templates below.

    Anything odd — an unresolved label in a branch slot, a negative
    target, a non-numeric immediate — is left to the interpreter, which
    either handles it or produces the canonical error for it.
    """
    op = ins[0]
    if op not in _KNOWN_OPS:
        return False
    if op == Opcode.JMP or op == Opcode.CALL:
        return isinstance(ins[1], int) and ins[1] >= 0
    if op == Opcode.BRZ or op == Opcode.BRNZ:
        return isinstance(ins[2], int) and ins[2] >= 0
    if op in (Opcode.LOAD, Opcode.STORE, Opcode.SHLI, Opcode.SHRI):
        return isinstance(ins[3], int)
    if op == Opcode.MOVI:
        return isinstance(ins[2], (int, float))
    if op == Opcode.SELECT:
        return isinstance(ins[3], tuple) and len(ins[3]) == 2
    if op in _CMP_IMM_OPS or op in (
        Opcode.ADDI, Opcode.MULI, Opcode.ANDI, Opcode.XORI
    ):
        return isinstance(ins[3], (int, float))
    return True


def _decode_trace(code: list[tuple], start: int, cap: int, heat=None):
    """Follow the expected-hot path from ``start`` (superblock decoding).

    Returns ``(items, fallthrough, cut)`` with items in retire order.  A
    conditional branch does not end the trace: decoding continues on the
    not-taken (fall-through) arm and the taken arm becomes a *side exit*
    in the emitted code — loop bodies laid out with backward taken edges
    therefore translate into a single block per iteration.  A strictly
    forward JMP is folded into the trace (it only costs cycles).  The
    trace ends at CALL/RET/KCALL/HALT, a backward jump, an untranslatable
    instruction, or the size cap; for the latter three, ``fallthrough``
    is the next ip to execute (the caller chains a continuation there).
    Given ``heat``, the trace is also ``cut`` where a branch's
    fall-through or a folded jump leads into a leader never entered.
    """
    items: list[tuple[int, tuple]] = []
    ip = start
    limit = len(code)
    while 0 <= ip < limit and len(items) < cap:
        ins = code[ip]
        op = ins[0]
        if not _translatable(ins):
            # executing it falls back to the interpreter, which raises
            # the exact "illegal opcode" error if it must
            break
        items.append((ip, ins))
        if op not in TERMINATOR_OPS:
            ip += 1
            continue
        if op == Opcode.JMP and ins[1] > ip:
            ip = ins[1]
        elif op == Opcode.BRZ or op == Opcode.BRNZ:
            ip += 1
        else:  # CALL, RET, KCALL, HALT, a backward JMP
            return items, None, False
        if heat is not None and not heat.get(ip):
            return items, ip, True
    return items, ip, False


def _emit_block(
    code, start, cap, mode, bound_cap=0, suffix="", tier=1,
    tree_budget=_TREE_BUDGET, tree_depth=_TREE_DEPTH, entries=None,
    heat=None, line0=0,
):
    """Emit the source of one block function; None if nothing translatable.

    Returns ``(source, max_path_instructions, event_bound,
    fallthrough_ips, pruned_ips, fault_sites)``; the fallthrough ips are
    continuation addresses where some path of the block hands control
    back without a terminator (size cap, untranslatable instruction, a
    cold cut), so the :class:`Translation` can register continuation
    blocks there.  The pruned ips are the exits left out only because
    ``heat`` (None prunes nothing) has not seen them entered.  The fault
    sites map a source line — numbered from ``line0``, the lines ahead
    of this function in the same source — to the error raised there.

    Blocks rooted at loop heads may grow *superblock trees* (module
    docstring): the continuation of a side exit is decoded and inlined
    into the taken arm, so hot paths that zig-zag through taken branches
    — and loop cycles that cross several trace heads before branching
    back to this block's start — run inside one Python function.
    """
    root_items, root_fall, cut = _decode_trace(code, start, cap, heat)
    if not root_items:
        return None
    # what the root is does not depend on how much of it is warm yet
    whole_root = _decode_trace(code, start, cap)[0] if cut else root_items
    if mode and bound_cap and len(root_items) > costs.FAST_VM_MAX_BLOCK:
        # Tier-2 armed roots decode past the tier-1 instruction cap (see
        # _emit_settings); keep the longest prefix whose worst-case
        # event bound still leaves tree headroom under ``bound_cap``, but
        # never trim below the tier-1 cap.  The cut point's ip is where
        # control would continue, so it becomes the fall-through leader.
        allowance = bound_cap // 2
        kept = costs.FAST_VM_MAX_BLOCK
        acc = _event_bound(root_items[:kept], mode)
        while kept < len(root_items):
            step = _event_bound(root_items[kept:kept + 1], mode)
            if acc + step > allowance:
                break
            acc += step
            kept += 1
        if kept < len(root_items):
            root_fall = root_items[kept][0]
            root_items = root_items[:kept]
            cut = False

    # Trees are grown only at *loop heads* — roots whose own trace
    # branches back to start.  Hot cycles always contain a loop head, so
    # the closed loop forms there, while cold leaders stay linear and the
    # generated source stays compact enough to compile quickly.
    is_loop_head = any(
        (ins[0] == Opcode.JMP and ins[1] == start)
        or (
            (ins[0] == Opcode.BRZ or ins[0] == Opcode.BRNZ)
            and ins[2] == start
        )
        for _, ins in whole_root
    )
    bound = _event_bound(root_items, mode)
    # Tier 2 additionally grows trees at profile-hot non-loop blocks: a
    # block entered hundreds of times per run without a closed loop is a
    # link of a per-row dispatch chain (join probe, EXISTS check), and
    # inlining its continuations lets one driver dispatch cover the
    # whole chain.
    hot_block = (
        tier >= 2
        and entries.get(start, 0) >= costs.TIER2_HOT_BLOCK_ENTRIES
    )
    tree = (is_loop_head or hot_block) and (mode == "" or bound < bound_cap)
    # Tier-2 deferred sync: a loop head keeps its counters, predictor
    # state and countdown in locals until a real exit or a failed edge
    # check.
    deferred = tier >= 2 and is_loop_head
    branch_ips: set[int] = set()
    if tree:
        # inlined continuations can bring loads/branches anywhere, so the
        # dynamic-cycles accumulator is unconditional
        has_dyn = True
    else:
        has_dyn = any(
            ins[0] == Opcode.LOAD
            or ins[0] == Opcode.BRZ
            or ins[0] == Opcode.BRNZ
            for _, ins in root_items
        )
    # Deferred loops let ``cy`` (dynamic cycles: cache misses,
    # mispredicts) accumulate *across* iterations instead of folding it
    # into ``_cyt`` and resetting at every back edge — exits and flushes
    # add ``cy`` once.  Not for the two modes whose loop edges consume a
    # per-iteration delta: ``cycles`` decrements the countdown by each
    # iteration's cost, ``l1`` by the per-iteration miss count ``_mi``.
    defer_cy = deferred and mode in ("", "instr", "loads", "brmiss")
    # segmented admission for the cycles-mode linear fallback ("f"
    # variant): see _FALLBACK_SEG
    seg = _FALLBACK_SEG if (suffix == "f" and mode == "cycles") else 0
    if seg and len(root_items) > seg:
        # the driver (and the loop edge, when the fallback closes a
        # short loop) only needs to cover the first segment — the block
        # re-checks before every later one
        bound = _event_bound(root_items[:seg], mode)
    # armed trees can inline loads into a load-free root, so the L1-miss
    # accumulator must exist whenever an arm *could* bring one
    track_l1 = mode == "l1" and (
        tree or any(ins[0] == Opcode.LOAD for _, ins in root_items)
    )

    # Registers are cached in Python locals (``r5`` for ``regs[5]``) for
    # the whole block: nothing outside the block can observe ``regs``
    # while it runs, so reads/writes stay private until an exit.  Every
    # used register is loaded up front (so early error exits can write
    # back unconditionally) and every *written* register is flushed at
    # each exit — the \x00WB placeholder marks those flush points and is
    # expanded once the full written set is known.  \x00LE marks loop
    # edges, expanded once the worst-case path length is known.
    used_regs: set[int] = set()
    written_regs: set[int] = set()
    flags = {"mem": False, "loop": False}
    fallthroughs: list[int] = []
    pruned: list[int] = [root_fall] if cut else []
    sites: list[tuple] = []  # see ``fault``
    max_k = 0  # worst-case instructions retired on any path
    emitted = 0  # total instructions emitted (tree growth budget)

    def rg(i: int) -> str:
        used_regs.add(i)
        return f"r{i}"

    def wr(i: int) -> str:
        used_regs.add(i)
        written_regs.add(i)
        return f"r{i}"

    def countdown_events(instr, cycles, loads) -> str:
        """What a path costs the countdown in this block's mode, as
        source text ("0": nothing); the arguments are the path's
        instruction, cycle and load totals."""
        return str({
            "instr": instr, "cycles": cycles, "loads": loads,
            "l1": "_mi" if track_l1 else 0,
        }.get(mode, 0))

    def try_inline(t, k, pend0, loads0, stores0, branches0, path, depth):
        """Inline the continuation at ``t`` into the current arm.

        Returns its emitted lines (at base indent), or None when trees
        are disabled, the target closes a non-root cycle, the growth
        budget/depth is exhausted, or (armed) the continuation would push
        the tree's worst-case event bound past ``bound_cap``, or (last:
        the exit is pruned) no entry has reached ``t`` yet."""
        nonlocal bound
        if (
            not tree
            or depth >= tree_depth
            or t in path
            or emitted >= tree_budget
        ):
            return None
        sub_items, sub_fall, sub_cut = _decode_trace(
            code, t, min(cap, tree_budget - emitted), heat
        )
        if not sub_items:
            return None
        sub_bound = _event_bound(sub_items, mode)
        if mode and bound + sub_bound > bound_cap:
            return None
        if heat is not None and not heat.get(t):
            pruned.append(t)
            return None
        bound += sub_bound
        if sub_cut:
            pruned.append(sub_fall)
        return emit_seq(
            sub_items, sub_fall, k, pend0, loads0, stores0, branches0,
            path | {t}, depth + 1,
        )

    def emit_seq(
        items, fall, k0, pend0, loads0, stores0, branches0, path, depth
    ):
        """Emit one decoded trace; recursion happens at inlined exits.

        ``k0``/``pend0``/``loads0``/``stores0``/``branches0`` carry the
        retired-count, statically-known cycles, memory-op and
        conditional-branch counts accumulated on the path into this
        trace, so sync points flush absolute totals."""
        nonlocal max_k, emitted
        emitted += len(items)
        lines: list[str] = []
        pend = pend0
        loads_done = loads0
        stores_done = stores0
        branches_done = branches0

        def cy_expr(const: int) -> str:
            if has_dyn:
                return f"cy + {const}" if const else "cy"
            return str(const)

        def fault(k: int, message: str, ip: int) -> str:
            """Mark the line this is appended to as an error site (a
            guard's ``raise _Fault``, or an access whose ``IndexError``
            is the error): the path-static totals — ``k`` instructions
            including the faulting one, the cycles before it — go into
            the site table the fault epilogue reads; the \x00F marker
            becomes the key once the line's number is known."""
            nonlocal max_k
            max_k = max(max_k, k)
            sites.append((
                k, pend, loads_done, stores_done, branches_done, message, ip
            ))
            return f"\x00F{len(sites) - 1}"

        def emit_sync(
            k: int, extra, instr_events: int, indent: str = "    "
        ) -> None:
            """Sync counters and pay the countdown at an exit retiring
            ``k`` instructions; ``extra`` is the exiting instruction's
            cost — an int, or the name of a local holding a dynamic
            cost."""
            nonlocal max_k
            max_k = max(max_k, k)
            lines.append(f"\x00WB{indent}\x00{branches_done}")
            if isinstance(extra, int):
                expr = cy_expr(pend + extra)
            else:
                expr = f"{cy_expr(pend)} + {extra}"

            def add(target: str, accumulator: str, amount) -> None:
                # a deferred loop folds its accumulator in with the
                # path's constant; a zero amount adds nothing
                terms = [
                    term
                    for term in (accumulator if deferred else "", str(amount))
                    if term and term != "0"
                ]
                if terms:
                    lines.append(f"{indent}{target} += {' + '.join(terms)}")

            add("state.loads", "_ld", loads_done)
            add("state.stores", "_st", stores_done)
            add("caches.accesses", "_ld + _st", loads_done + stores_done)
            if mode == "cycles":
                lines.append(f"{indent}_t = {expr}")
                expr = "_t"
            add("state.cycles", "_cyt", expr)
            add("state.instructions", "_ins", k)
            paid = countdown_events(instr_events, "_t", loads_done)
            if deferred and mode:
                # the countdown lives in ``_cd`` while the loop runs
                lines.append(
                    f"{indent}m._countdown = _cd"
                    + (f" - {paid}" if paid != "0" else "")
                )
            elif paid != "0":
                lines.append(f"{indent}m._countdown -= {paid}")

        def emit_edge_acc(k: int, extra: int, indent: str = "    ") -> None:
            """Deferred loop edge: fold the path's static totals into the
            function-local accumulators instead of flushing — the flush
            happens only if the admission re-check fails (see the \\x00LE
            expansion)."""
            nonlocal max_k
            max_k = max(max_k, k)
            static = pend + extra
            lines.append(f"{indent}_ins += {k}")
            if loads_done:
                lines.append(f"{indent}_ld += {loads_done}")
            if stores_done:
                lines.append(f"{indent}_st += {stores_done}")
            if branches_done:
                lines.append(f"{indent}_pb += {branches_done}")
            if mode == "cycles":
                lines.append(f"{indent}_t = {cy_expr(static)}")
                lines.append(f"{indent}_cyt += _t")
            elif defer_cy:
                # ``cy`` rides across iterations; only the path's
                # static cycles fold into the accumulator here
                if static:
                    lines.append(f"{indent}_cyt += {static}")
            elif cy_expr(static) != "0":
                lines.append(f"{indent}_cyt += {cy_expr(static)}")
            paid = countdown_events(k, "_t", loads_done)
            if paid != "0":
                lines.append(f"{indent}_cd -= {paid}")

        def emit_loop_edge(indent: str) -> None:
            """Re-run the driver's admission check, then take the back
            edge of the function-level loop (a ``continue`` jumps to the
            block start: counters were just synced, ``cy`` resets at the
            loop top)."""
            flags["loop"] = True
            lines.append(f"\x00LE{indent}")

        for index, (ip, ins) in enumerate(items):
            if seg and depth == 0 and index and index % seg == 0:
                # segmented admission re-check: the driver only covered
                # the first segment's worst-case bound, so before each
                # further segment compare the live countdown against the
                # next segment; on failure sync exactly and hand the
                # mid-trace ip back (the interpreter finishes the short
                # remaining stretch of the sampling window)
                nxt = _event_bound(items[index:index + seg], mode)
                lines.append(
                    f"    if m._countdown - {cy_expr(pend)} <= {nxt}:"
                )
                emit_sync(k0 + index, 0, k0 + index, indent="        ")
                lines.append(f"        return {ip}")
            op = ins[0]
            k = k0 + index + 1  # instructions retired including this one
            d, a, b = ins[1], ins[2], ins[3]

            if op == Opcode.NOP:
                pend += 1
            elif op == Opcode.MOV:
                lines.append(f"    {wr(d)} = {rg(a)}")
                pend += 1
            elif op == Opcode.MOVI:
                lines.append(f"    {wr(d)} = {a!r}")
                pend += 1
            elif op in _SIMPLE_BINOPS:
                sym = _SIMPLE_BINOPS[op]
                lines.append(f"    {wr(d)} = {rg(a)} {sym} {rg(b)}")
                pend += 1
            elif op in _CMP_OPS:
                sym = _CMP_OPS[op]
                lines.append(
                    f"    {wr(d)} = 1 if {rg(a)} {sym} {rg(b)} else 0"
                )
                pend += 1
            elif op in _CMP_IMM_OPS:
                sym = _CMP_IMM_OPS[op]
                lines.append(
                    f"    {wr(d)} = 1 if {rg(a)} {sym} {b!r} else 0"
                )
                pend += 1
            elif op == Opcode.ADDI:
                lines.append(f"    {wr(d)} = {rg(a)} + {b!r}")
                pend += 1
            elif op == Opcode.ANDI:
                lines.append(f"    {wr(d)} = {rg(a)} & {b!r}")
                pend += 1
            elif op == Opcode.XORI:
                lines.append(f"    {wr(d)} = {rg(a)} ^ {b!r}")
                pend += 1
            elif op == Opcode.SHLI:
                lines.append(
                    f"    {wr(d)} = ({rg(a)} << {b & 63}) & {_MASK64}"
                )
                pend += 1
            elif op == Opcode.SHRI:
                lines.append(
                    f"    {wr(d)} = ({rg(a)} & {_MASK64}) >> {b & 63}"
                )
                pend += 1
            elif op == Opcode.SHL:
                lines.append(
                    f"    {wr(d)} = ({rg(a)} << ({rg(b)} & 63)) & {_MASK64}"
                )
                pend += 1
            elif op == Opcode.SHR:
                lines.append(
                    f"    {wr(d)} = ({rg(a)} & {_MASK64}) >> ({rg(b)} & 63)"
                )
                pend += 1
            elif op == Opcode.ROTR:
                lines += [
                    f"    _v = {rg(a)} & {_MASK64}",
                    f"    _s = {rg(b)} & 63",
                    f"    {wr(d)} = ((_v >> _s) | (_v << (64 - _s)))"
                    f" & {_MASK64}",
                ]
                pend += 1
            elif op == Opcode.MUL or op == Opcode.MULI:
                rhs = rg(b) if op == Opcode.MUL else repr(b)
                lines += [
                    f"    _r = {rg(a)} * {rhs}",
                    "    if isinstance(_r, int):",
                    f"        _r &= {_MASK64}",
                    f"        if _r & {_SIGN64}:",
                    f"            _r -= {1 << 64}",
                    f"    {wr(d)} = _r",
                ]
                pend += costs.CYCLES_MUL
            elif op == Opcode.SDIV:
                lines += [
                    f"    _a = {rg(a)}",
                    f"    _b = {rg(b)}",
                    "    if _b == 0: raise _Fault"
                    + fault(k, "division by zero", ip),
                    "    _q = abs(_a) // abs(_b)",
                    f"    {wr(d)} = -_q if (_a < 0) != (_b < 0) else _q",
                ]
                pend += costs.CYCLES_DIV
            elif op == Opcode.SREM:
                lines += [
                    f"    _b = {rg(b)}",
                    "    if _b == 0: raise _Fault"
                    + fault(k, "remainder by zero", ip),
                    f"    _a = {rg(a)}",
                    "    _q = abs(_a) // abs(_b)",
                    "    if (_a < 0) != (_b < 0):",
                    "        _q = -_q",
                    f"    {wr(d)} = _a - _b * _q",
                ]
                pend += costs.CYCLES_DIV
            elif op == Opcode.FDIV:
                lines += [
                    f"    _b = {rg(b)}",
                    "    if _b == 0: raise _Fault"
                    + fault(k, "fdiv by zero", ip),
                    f"    {wr(d)} = {rg(a)} / _b",
                ]
                pend += costs.CYCLES_DIV
            elif op == Opcode.CVTIF:
                lines.append(f"    {wr(d)} = float({rg(a)})")
                pend += 1
            elif op == Opcode.CVTFI:
                lines.append(f"    {wr(d)} = int({rg(a)})")
                pend += 1
            elif op == Opcode.CRC32:
                # int operands (the overwhelmingly common case: hash keys)
                # run the 64-bit mix inline; anything else falls back to
                # crc32_mix, which hashes floats by IEEE-754 bit pattern
                lines += [
                    f"    _a = {rg(a)}",
                    f"    _b = {rg(b)}",
                    "    if _a.__class__ is int and _b.__class__ is int:",
                    f"        _z = ((_a & {_MASK64})"
                    f" ^ ((_b & {_MASK64}) * {0x9E3779B97F4A7C15}))"
                    f" & {_MASK64}",
                    "        _z ^= _z >> 29",
                    f"        _z = (_z * {0xBF58476D1CE4E5B9}) & {_MASK64}",
                    f"        {wr(d)} = _z ^ (_z >> 32)",
                    "    else:",
                    f"        {wr(d)} = crc32_mix(_a, _b)",
                ]
                pend += costs.CYCLES_CRC32
            elif op == Opcode.SELECT:
                rt, rf = b
                lines.append(
                    f"    {wr(d)} = {rg(rt)} if {rg(a)} else {rg(rf)}"
                )
                pend += 1
            elif op == Opcode.MIN or op == Opcode.MAX:
                sym = "<=" if op == Opcode.MIN else ">="
                lines += [
                    f"    _a = {rg(a)}",
                    f"    _b = {rg(b)}",
                    f"    {wr(d)} = _a if _a {sym} _b else _b",
                ]
                pend += 1
            elif op == Opcode.LOAD or op == Opcode.STORE:
                # LOAD is (op, dst, base, imm), STORE (op, base, src, imm).
                # The address check is one guard and the access runs bare
                # — its IndexError is the out-of-bounds fault, told apart
                # from the guard's by the line it came from.  The L1-hit
                # latency (a store's cost was always static) is folded
                # into the path-static cycles (``pend``), so a hit retires
                # without touching ``cy`` and only a true L1 miss calls
                # out — a load then charges the latency *difference*
                # against the folded constant.
                load = op == Opcode.LOAD
                kind = "load" if load else "store"
                base = rg(a if load else d)
                access = (
                    f"{wr(d)} = words[_x >> 3]" if load
                    else f"words[_x >> 3] = {rg(a)}"
                )
                flags["mem"] = True
                lines += [
                    f"    if (_x := {f'{base} + {b}' if b else base})"
                    " & 7 or _x < 8: raise _Fault"
                    + fault(k, f"unaligned or null {kind} at %#x", ip),
                    f"    {access}"
                    + fault(k, f"{kind} out of bounds at %#x", ip),
                ]
                miss = ["_acc(_x)"]
                if load:
                    miss = ["_c = _acc(_x)", f"cy += _c - {costs.LAT_L1}"]
                    if mode == "l1":
                        miss += [f"if _c > {costs.LAT_L1}:", "    _mi += 1"]
                if tier >= 2:
                    # ``_mln`` memoizes the line of the *previous* memory
                    # op: that line is by construction the MRU entry of
                    # its set (every arm below ends with the accessed
                    # line at MRU position), so a repeat access to it is
                    # a guaranteed L1 MRU hit and skips the whole set
                    # lookup — one shift and one compare.  The
                    # hit-not-MRU arm inlines CacheLevel.access's LRU
                    # move-to-front.
                    lines += [
                        "    if (_ln := _x >> _lb) != _mln:",
                        "        _mln = _ln",
                        "        if not (_tg := _l1s[_ln & _l1m])"
                        " or _tg[0] != _ln:",
                        "            if _ln in _tg:",
                        "                _tg.remove(_ln)",
                        "                _tg.insert(0, _ln)",
                        "            else:",
                        *(f"                {ln}" for ln in miss),
                    ]
                else:
                    lines += [
                        "    _ln = _x >> _lb",
                        "    _tg = _l1s[_ln & _l1m]",
                        "    if not _tg or _tg[0] != _ln:",
                        *(f"        {ln}" for ln in miss),
                    ]
                if load:
                    pend += costs.LAT_L1
                    loads_done += 1
                else:
                    pend += costs.CYCLES_STORE
                    stores_done += 1

            # -- control flow ----------------------------------------------
            elif op == Opcode.JMP:
                if d > ip:
                    # folded forward jump: control stays inside the trace,
                    # only the branch cycle is charged
                    pend += costs.CYCLES_BRANCH
                elif d == start:
                    if deferred:
                        emit_edge_acc(k, costs.CYCLES_BRANCH)
                    else:
                        emit_sync(k, costs.CYCLES_BRANCH, k)
                    emit_loop_edge("    ")
                else:
                    sub = try_inline(
                        d, k, pend + costs.CYCLES_BRANCH,
                        loads_done, stores_done, branches_done, path, depth,
                    )
                    if sub is not None:
                        lines.extend(sub)
                    else:
                        emit_sync(k, costs.CYCLES_BRANCH, k)
                        lines.append(f"    return {d}")
            elif (op == Opcode.BRZ or op == Opcode.BRNZ) and deferred:
                # Tier-2: the 2-bit counter lives in a local (_h{ip},
                # loaded once at entry, written back only on change at
                # exits), mispredicts accumulate in _pm, and the retired
                # branch *count* is path-static — it folds into sync/edge
                # constants instead of a per-branch increment.  The
                # predictor update is split per arm so the condition is
                # tested exactly once.
                cond = "==" if op == Opcode.BRZ else "!="
                branch_ips.add(ip)
                h = f"_h{ip}"
                branches_done += 1
                miss_cd = ["_cd -= 1"] if mode == "brmiss" else []
                lines.append(f"    if {rg(d)} {cond} 0:")
                # taken arm: mispredict iff the pre-update counter < 2;
                # update saturates upward at 3
                lines += [
                    f"        _c = {h}",
                    "        if _c < 3:",
                    f"            {h} = _c + 1",
                    "        if _c < 2:",
                    "            _pm += 1",
                    f"            cy += {costs.CYCLES_BRANCH_MISS}",
                    *(f"            {s}" for s in miss_cd),
                ]
                arm = "        "
                if a == start:
                    emit_edge_acc(k, costs.CYCLES_BRANCH, arm)
                    emit_loop_edge(arm)
                else:
                    sub = try_inline(
                        a, k, pend + costs.CYCLES_BRANCH, loads_done,
                        stores_done, branches_done, path, depth,
                    )
                    if sub is not None:
                        lines.extend("    " + ln for ln in sub)
                    else:
                        emit_sync(k, costs.CYCLES_BRANCH, k, indent=arm)
                        lines.append(f"{arm}return {a}")
                # not-taken arm: mispredict iff the pre-update counter
                # >= 2; update saturates downward at 0
                lines.append("    else:")
                lines += [
                    f"        _c = {h}",
                    "        if _c > 0:",
                    f"            {h} = _c - 1",
                    "        if _c >= 2:",
                    "            _pm += 1",
                    f"            cy += {costs.CYCLES_BRANCH_MISS}",
                    *(f"            {s}" for s in miss_cd),
                ]
                pend += costs.CYCLES_BRANCH
            elif op == Opcode.BRZ or op == Opcode.BRNZ:
                # side exit: the taken arm leaves the trace (or inlines
                # its continuation), the fall-through arm keeps executing
                cond = "==" if op == Opcode.BRZ else "!="
                lines += [
                    f"    _tk = {rg(d)} {cond} 0",
                    "    predictor.branches += 1",
                    f"    _cnt = predictor.counters.get({ip}, 1)",
                    "    if _tk:",
                    "        if _cnt < 3:",
                    f"            predictor.counters[{ip}] = _cnt + 1",
                    "    else:",
                    "        if _cnt > 0:",
                    f"            predictor.counters[{ip}] = _cnt - 1",
                    "    if (_cnt >= 2) != _tk:",
                    "        predictor.mispredicts += 1",
                    f"        _bc = "
                    f"{costs.CYCLES_BRANCH + costs.CYCLES_BRANCH_MISS}",
                ]
                if mode == "brmiss":
                    lines.append("        m._countdown -= 1")
                lines += [
                    "    else:",
                    f"        _bc = {costs.CYCLES_BRANCH}",
                    "    if _tk:",
                ]
                if a == start:
                    emit_sync(k, "_bc", k, indent="        ")
                    emit_loop_edge("        ")
                else:
                    sub = try_inline(
                        a, k, pend, loads_done, stores_done, branches_done,
                        path, depth,
                    )
                    if sub is not None:
                        lines.append("        cy += _bc")
                        lines.extend("    " + ln for ln in sub)
                    else:
                        emit_sync(k, "_bc", k, indent="        ")
                        lines.append(f"        return {a}")
                lines.append("    cy += _bc")
            elif op == Opcode.CALL:
                lines += [
                    f"    m.call_stack.append({ip + 1})",
                    "    if len(m.call_stack) > 256:",
                ]
                # the interpreter charges the call's cycles before it
                # checks the depth, but ticks the countdown only after
                lines += [
                    f"        state.cycles += {costs.CYCLES_CALL}",
                    "        raise _Fault"
                    + fault(k, "call stack overflow", ip),
                ]
                emit_sync(k, costs.CYCLES_CALL, k)
                lines.append(f"    return {d}")
            elif op == Opcode.RET:
                lines.append("    _rt = m.call_stack.pop()")
                emit_sync(k, costs.CYCLES_RET, k)
                lines.append("    return _rt")
            elif op == Opcode.KCALL:
                # the kernel instruction itself is free and does not tick
                # the instruction-event countdown (it `continue`s past
                # that code in the interpreter); the kernel accounts for
                # its own work
                emit_sync(k, 0, k - 1)
                lines += [
                    "    if m.kernel is None:",
                    f"        raise VMError('kernel call"
                    f" without a kernel', {ip})",
                    f"    m.kernel.call(m, {d})",
                    f"    return {ip + 1}",
                ]
            elif op == Opcode.HALT:
                # like KCALL, HALT retires without charging cycles or
                # ticking the countdown
                emit_sync(k, 0, k - 1)
                lines += [
                    "    m.call_stack.pop()",
                    "    return -1",
                ]

        if fall is not None:
            # trace ended at the size cap, an untranslatable instruction,
            # or the end of the code image: hand the continuation ip back
            # to the driver (a chained continuation block, or the
            # interpreter)
            k_end = k0 + len(items)
            emit_sync(k_end, 0, k_end)
            lines.append(f"    return {fall}")
            fallthroughs.append(fall)
        return lines

    root_lines = emit_seq(root_items, root_fall, 0, 0, 0, 0, 0, {start}, 0)
    lines: list[str] = []
    if has_dyn and not defer_cy:
        # inside the function-level loop when one exists, so a back edge
        # resets the dynamic accumulators for the next iteration
        # (``defer_cy`` loops instead initialize ``cy`` once in the head
        # and let it accumulate across iterations)
        lines.append("    cy = 0")
    if track_l1:
        lines.append("    _mi = 0")
    lines += root_lines

    # expand placeholders now that the written set and worst-case path
    # length are final
    written = sorted(written_regs)

    def write_back(branches: str = "0") -> list[str]:
        """What every way out of the function — exit, edge flush, fault
        epilogue — starts with: the cached registers, and in a deferred
        loop the predictor state (``branches`` is the path's static
        count on top of ``_pb``)."""
        out = [f"regs[{i}] = r{i}" for i in written]
        if deferred:
            out.append(
                "predictor.branches += _pb"
                + (f" + {branches}" if branches != "0" else "")
            )
            out.append("predictor.mispredicts += _pm")
            out.extend(
                f"if _h{bip} != _hs{bip}: _pc[{bip}] = _h{bip}"
                for bip in sorted(branch_ips)
            )
        return out

    if deferred:
        budget_cond = f"_ib + _ins + {max_k} > _maxi"
        le_cond = f"_cd <= {bound} or {budget_cond}" if mode else budget_cond
        # the uniform edge flush: everything the accumulators deferred
        # goes back to machine state before the driver regains control
        flush = write_back() + [
            "state.instructions += _ins",
            "state.cycles += _cyt + cy" if defer_cy and has_dyn
            else "state.cycles += _cyt",
            "state.loads += _ld",
            "state.stores += _st",
            "caches.accesses += _ld + _st",
        ]
        if mode:
            flush.append("m._countdown = _cd")
    elif mode:
        le_cond = (
            f"m._countdown <= {bound}"
            f" or state.instructions + {max_k} > _maxi"
        )
    else:
        le_cond = f"state.instructions + {max_k} > _maxi"
    expanded: list[str] = []
    for ln in lines:
        # inlined sub-traces get re-indented wholesale, so a placeholder
        # line is (outer indent) + marker + (frame-local indent), with
        # a WB site's path-static branch count carried behind a second NUL
        if "\x00WB" in ln:
            indent, _, bd = ln.replace("\x00WB", "").partition("\x00")
            expanded.extend(indent + out for out in write_back(bd))
        elif "\x00LE" in ln:
            indent = ln.replace("\x00LE", "")
            if deferred:
                expanded.append(f"{indent}if {le_cond}:")
                expanded.extend(f"{indent}    {f}" for f in flush)
                expanded.append(f"{indent}    return {start}")
                expanded.append(f"{indent}continue")
            else:
                expanded.extend([
                    f"{indent}if {le_cond}:",
                    f"{indent}    return {start}",
                    f"{indent}continue",
                ])
        else:
            expanded.append(ln)

    head: list[str] = [
        f"def _b{start}{suffix}"
        "(m, regs, words, state, caches, predictor, _T=_T):"
    ]
    if flags["mem"]:
        # The L1 MRU-hit test is inlined at every memory op; anything else
        # (LRU move, miss, allocation) calls back into the hierarchy so
        # cache state stays bit-identical to the interpreter's.
        head += [
            "    _l1 = caches.l1",
            "    _l1s = _l1.sets",
            "    _l1m = _l1.set_mask",
            "    _lb = _l1.line_bits",
            "    _acc = caches.access_uncounted",
        ]
    if flags["loop"]:
        head.append("    _maxi = state.max_instructions")
    if tier >= 2 and flags["mem"]:
        # same-line memo: no real line index is negative, so -1 forces
        # the first memory op down the full check
        head.append("    _mln = -1")
    # load every used register up front: exits flush the full written set
    # unconditionally, so all the locals must be bound from the start
    head.extend(f"    r{i} = regs[{i}]" for i in sorted(used_regs))
    if deferred:
        if branch_ips:
            head.append("    _pc = predictor.counters")
            head.append("    _pg = _pc.get")
            for bip in sorted(branch_ips):
                head.append(f"    _h{bip} = _pg({bip}, 1)")
                head.append(f"    _hs{bip} = _h{bip}")
        head += [
            "    _pm = 0",
            "    _pb = 0",
            "    _ins = 0",
            "    _cyt = 0",
            "    _ld = 0",
            "    _st = 0",
            "    _ib = state.instructions",
        ]
        if defer_cy and has_dyn:
            head.append("    cy = 0")
        if mode:
            head.append("    _cd = m._countdown")
    if flags["loop"]:
        body = ["    while True:"] + ["    " + ln for ln in expanded]
    else:
        body = expanded
    if sites:
        # The one fault epilogue: ``_T`` — a default the Translation
        # supplies, never parsed — says by source line what had retired
        # at an error site, and the write-back plus counter sync
        # the interpreter would have performed by then is emitted once,
        # here (a ``try`` costs nothing until it catches).  An exception
        # from any other line (an empty call stack's ``pop``, a kernel
        # call) goes on untouched.  Every path through the body returns,
        # so the code after the handler is reached only by a fault.  The
        # countdown pays for what retired *before* the faulting
        # instruction, as the interpreter does.
        paid = countdown_events("_fk - 1", "_fc", "_fl")
        acc = (lambda name: f"{name} + ") if deferred else (lambda name: "")
        epilogue = write_back("_fb") + [
            f"state.cycles += {acc('_cyt')}_fc",
            f"state.instructions += {acc('_ins')}_fk",
            f"state.loads += {acc('_ld')}_fl",
            f"state.stores += {acc('_st')}_fs",
            f"caches.accesses += {acc('_ld + _st')}_fl + _fs",
        ]
        if deferred and mode:
            epilogue.append(
                "m._countdown = _cd" + (f" - ({paid})" if paid != "0" else "")
            )
        elif paid != "0":
            epilogue.append(f"m._countdown -= {paid}")
        body = (
            ["    try:"]
            + ["    " + ln for ln in body]
            + [
                "    except (_Fault, IndexError) as _f:",
                "        if (_ft := _T.get(_f.__traceback__.tb_lineno)) is None:",
                "            raise",
                "        _fk, _fc, _fl, _fs, _fb, _fm, _fi = _ft",
            ]
            + (["        _fc += cy"] if has_dyn else [])
            + (
                ['        if "%" in _fm:', "            _fm %= _x"]
                if flags["mem"] else []
            )
            + ["    " + ln for ln in epilogue]
            + ["    raise VMError(_fm, _fi)"]
        )
    out = head + body
    table = {}
    for index, ln in enumerate(out):
        if "\x00F" in ln:
            out[index], _, site = ln.partition("\x00F")
            table[line0 + index + 1] = sites[int(site)]
    return "\n".join(out) + "\n", max_k, bound, fallthroughs, pruned, table


def _event_bound(instrs, mode) -> int:
    """Worst-case countdown events one execution of the block can cost."""
    if mode == "instr":
        return len(instrs)
    if mode == "cycles":
        return sum(_WORST_CYCLES.get(ins[0], 1) for _, ins in instrs)
    if mode == "loads" or mode == "l1":
        return sum(1 for _, ins in instrs if ins[0] == Opcode.LOAD)
    if mode == "brmiss":
        return sum(
            1 for _, ins in instrs
            if ins[0] == Opcode.BRZ or ins[0] == Opcode.BRNZ
        )
    return 0
