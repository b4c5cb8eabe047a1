"""The simulated CPU: a cycle-accounted register-machine interpreter.

The machine executes :class:`~repro.vm.isa.Program` images, models the
memory hierarchy and branch prediction for costs, and drives the PEBS-like
PMU.  It is single-core, matching the paper's single-threaded evaluation
setup.

Numeric semantics: registers and memory words hold Python ints (i64) or
floats (f64).  ``MUL`` wraps to 64-bit two's-complement (hash mixing relies
on it); ``ADD``/``SUB`` do not wrap — the engine never generates code whose
sums approach 2^63.  ``SDIV``/``SREM`` truncate toward zero like C.
"""

from __future__ import annotations

import struct as _struct
import warnings

from dataclasses import dataclass

from repro.errors import InstructionBudgetExceeded, VMError
from repro.vm import costs
from repro.vm.branch import BranchPredictor
from repro.vm.cache import CacheHierarchy
from repro.vm.isa import (
    NUM_REGS,
    REG_TAG,
    TAG_QUERY_SHIFT,
    TAG_TASK_MASK,
    FunctionInfo,
    Opcode,
    Program,
)
from repro.vm.memory import Memory
from repro.vm.pmu import Event, PmuConfig, Sample, SampleBuffer

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63

STACK_BYTES = 1 << 16


def _sdiv(a: int, b: int) -> int:
    """C-style signed division truncating toward zero."""
    if b == 0:
        raise ZeroDivisionError("sdiv by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def crc32_mix(a, b) -> int:
    """The CRC32 instruction's 64-bit mix (shared with constant folding).

    Float operands are hashed by their IEEE-754 bit pattern, as hardware
    hashing a spilled xmm value would see them (group-by keys can be
    floating point, e.g. ``SELECT DISTINCT price / 10.0``)."""
    if isinstance(a, float):
        a = _struct.unpack("<q", _struct.pack("<d", a))[0]
    if isinstance(b, float):
        b = _struct.unpack("<q", _struct.pack("<d", b))[0]
    a &= _MASK64
    b &= _MASK64
    z = (a ^ (b * 0x9E3779B97F4A7C15)) & _MASK64
    z ^= z >> 29
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    return z ^ (z >> 32)


@dataclass
class MachineState:
    """Counters exposed for reports and tests."""

    cycles: int = 0
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    kernel_cycles: int = 0
    sampling_cycles: int = 0
    samples_taken: int = 0
    max_instructions: int = 500_000_000


class Machine:
    """Interpreter for native programs with optional PMU sampling."""

    def __init__(
        self,
        program: Program,
        memory: Memory,
        pmu_config: PmuConfig | None = None,
        kernel=None,
        fast_vm: bool = True,
    ):
        self.program = program
        self.memory = memory
        self.regs: list = [0] * NUM_REGS
        self.caches = CacheHierarchy()
        self.predictor = BranchPredictor()
        self.state = MachineState()
        self.pmu_config = pmu_config
        self.samples = SampleBuffer()
        self.call_stack: list[int] = []
        self.output: list[tuple] = []
        self.kernel = kernel
        self._countdown = pmu_config.period if pmu_config else 0
        self._jitter = 0x5DEECE66D  # deterministic LCG state
        self._external_ip_rotor = 0
        # Fast mode runs template-translated basic blocks (repro.vm.translate)
        # and hands over to the interpreter whenever a block's static
        # countdown step could cross a sample boundary.  Below
        # FAST_VM_MIN_PERIOD that would dominate: the fast engine disarms.
        self.translation = None
        if fast_vm and (
            pmu_config is None or pmu_config.period >= costs.FAST_VM_MIN_PERIOD
        ):
            from repro.vm.translate import translation_for

            # nothing compiles here: blocks translate once they are hot
            self.translation = translation_for(program, pmu_config)
        elif fast_vm:
            # auto-disable used to be silent: benchmarks could think they
            # measured the fast VM while every instruction interpreted
            warnings.warn(
                f"fast VM disarmed: PMU period {pmu_config.period} is below "
                f"the minimum ({costs.FAST_VM_MIN_PERIOD}); running the "
                "tier-0 interpreter",
                RuntimeWarning,
                stacklevel=2,
            )
        stack_base = memory.alloc(STACK_BYTES, "stack")
        self.stack_base = stack_base
        self.stack_end = stack_base + STACK_BYTES
        self.regs[15] = self.stack_end  # stack grows downward

    @property
    def tier(self) -> int:
        """0 the pure interpreter, else its program's translation's tier
        (2 once a root compiled a deferred loop, else 1) — shared with
        every machine on that translation."""
        translation = self.translation
        return translation.stats()["tier"] if translation is not None else 0

    # ------------------------------------------------------------------
    # concurrent serving (repro.serve)

    def set_query_tag(self, query_id: int) -> None:
        """Install ``query_id`` into the high half of the tag register.

        The serve scheduler calls this on every morsel dispatch — the
        context-switch half of query-qualified tagging.  Code compiled
        with ``qualify_tags`` only ever rewrites the low (task) half, so
        the pair survives any number of runtime calls."""
        current = self.regs[REG_TAG]
        task_half = current & TAG_TASK_MASK if isinstance(current, int) else 0
        self.regs[REG_TAG] = (query_id << TAG_QUERY_SHIFT) | task_half

    def pmu_cursor(self) -> tuple[int, int, int]:
        """The live sampling state: (countdown, jitter LCG, external-IP rotor).

        A serve worker transfers this between the per-query machines it
        multiplexes, so the PMU stays armed *across* queries — the event
        countdown never resets at a query boundary."""
        return (self._countdown, self._jitter, self._external_ip_rotor)

    def restore_pmu_cursor(self, cursor: tuple[int, int, int]) -> None:
        self._countdown, self._jitter, self._external_ip_rotor = cursor

    # ------------------------------------------------------------------
    # sampling

    def _take_sample(
        self, ip: int, memaddr: int | None, branch: bool | None = None
    ) -> None:
        config = self.pmu_config
        depth = len(self.call_stack)
        sample = Sample(
            ip=ip,
            tsc=self.state.cycles,
            registers=tuple(self.regs) if config.record_registers else None,
            callstack=(
                tuple(ret - 1 for ret in self.call_stack if ret >= 0)
                if config.record_callstack
                else None
            ),
            memaddr=memaddr if config.record_memaddr else None,
            branch_taken=branch,
        )
        cost = config.sample_cost(depth)
        cost += self.samples.record(sample)
        self.state.cycles += cost
        self.state.sampling_cycles += cost
        self.state.samples_taken += 1
        self._reset_countdown(config)

    def _reset_countdown(self, config) -> None:
        """Re-arm the sampling counter with a small deterministic jitter.

        A fixed period aliases with loop bodies whose event count divides it
        — every sample then hits the same instruction (the aliasing effect
        §4.1 warns about).  Hardware/perf avoid this by randomizing the
        period; we use a tiny LCG so runs stay reproducible."""
        period = config.period
        if period >= 16:
            self._jitter = (self._jitter * 1103515245 + 12345) & 0x7FFFFFFF
            spread = period >> 3
            self._countdown = period + self._jitter % spread - (spread >> 1)
        else:
            self._countdown = period

    def advance_external(
        self,
        fn_info: FunctionInfo,
        cycles: int,
        instructions: int,
        loads: int = 0,
        addr: int | None = None,
    ) -> None:
        """Account for work done outside interpreted code (kernel calls).

        The event stream still advances, so samples can land inside the
        external function's code range — this is how kernel samples appear
        in attribution reports (Table 2).
        """
        self.state.cycles += cycles
        self.state.instructions += instructions
        self.state.loads += loads
        self.state.kernel_cycles += cycles
        config = self.pmu_config
        if config is None:
            return
        event = config.event
        if event is Event.INSTRUCTIONS:
            increments = instructions
        elif event is Event.CYCLES:
            increments = cycles
        elif event is Event.LOADS:
            increments = loads
        else:
            increments = 0
        span = max(1, fn_info.end - fn_info.start)
        while increments >= self._countdown:
            increments -= self._countdown
            fake_ip = fn_info.start + (self._external_ip_rotor % span)
            self._external_ip_rotor += 1
            self._take_sample(fake_ip, addr)  # re-arms the countdown
        self._countdown -= increments

    # ------------------------------------------------------------------
    # execution

    def call(self, entry_ip: int, args: tuple = ()) -> int | float:
        """Run the function at ``entry_ip`` to completion; return r0."""
        regs = self.regs
        for i, value in enumerate(args):
            regs[i] = value
        if self.translation is not None:
            self._run_fast(entry_ip)
        else:
            self._run(entry_ip)
        return regs[0]

    def _run(self, entry_ip: int) -> None:
        """Pure interpretation, one instruction at a time."""
        self.call_stack.append(-1)
        self._interp(entry_ip, None)

    def _run_fast(self, entry_ip: int) -> None:
        """Dual-mode driver: translated blocks, else the interpreter.

        A translated block only runs when neither a PMU sample nor an
        instruction-budget fault could fall due on its static path: the
        live countdown must strictly exceed the block's event bound
        (``b[2]``; a miss or a mispredict settles inside the block, see
        ``repro.vm.translate``) and the budget must cover the whole
        block.  When the check fails, ``_interp`` takes over for the
        rest of the sampling window and suspends at the next block
        leader that passes the same check — so sample streams, counters,
        and VMError behavior are bit-identical to pure interpretation.

        A block not yet compiled is a *stub* entry that always passes
        this check (zero instructions, bound below any countdown).
        Cold, it runs ``_interp`` from there; the call that makes it hot
        compiles the block, swaps the map entry and returns the same ip,
        so the next turn of this loop dispatches the real block under
        the real check (see ``repro.vm.translate``).  The map object
        never changes, which is what lets this loop hoist it.
        """
        blocks = self.translation.blocks
        self.call_stack.append(-1)
        regs = self.regs
        words = self.memory.words
        state = self.state
        caches = self.caches
        predictor = self.predictor
        get = blocks.get
        armed = self.pmu_config is not None
        interp = self._interp
        max_instructions = state.max_instructions
        ip = entry_ip
        while ip >= 0:
            b = get(ip)
            if (
                b is not None
                and state.instructions + b[1] <= max_instructions
                and (not armed or self._countdown > b[2])
            ):
                ip = b[0](self, regs, words, state, caches, predictor)
            else:
                ip = interp(ip, blocks)

    def _interp(self, entry_ip: int, blocks) -> int:  # noqa: C901 - interpreter core
        """Interpret from ``entry_ip``; return -1 once the run completes.

        In fast mode ``blocks`` is the translation map: the loop suspends
        and returns the current ip as soon as it stands on a translated
        block that is safe to run fast again (same condition as the
        ``_run_fast`` driver, checked *before* executing, so the two
        engines can never livelock handing the same ip back and forth).
        """
        code = self.program.code
        words = self.memory.words
        regs = self.regs
        caches = self.caches
        predictor = self.predictor
        state = self.state
        config = self.pmu_config
        sample_on_instr = config is not None and config.event is Event.INSTRUCTIONS
        sample_on_cycles = config is not None and config.event is Event.CYCLES
        sample_on_loads = config is not None and config.event is Event.LOADS
        sample_on_l1 = config is not None and config.event is Event.L1_MISS
        sample_on_brmiss = config is not None and config.event is Event.BRANCH_MISS
        has_blocks = blocks is not None
        blocks_get = blocks.get if has_blocks else None
        translation = self.translation

        ip = entry_ip
        cycles = state.cycles
        instructions = state.instructions
        max_instructions = state.max_instructions
        # Opcode members hoisted to plain-int locals: LOAD_FAST in the
        # dispatch chain beats a class-attribute lookup per comparison.
        _NOP, _MOV, _MOVI, _LOAD, _STORE = (
            Opcode.NOP, Opcode.MOV, Opcode.MOVI, Opcode.LOAD, Opcode.STORE)
        _ADD, _SUB, _MUL, _SDIV, _SREM = (
            Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.SDIV, Opcode.SREM)
        _AND, _OR, _XOR, _SHL, _SHR, _ROTR = (
            Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
            Opcode.ROTR)
        _ADDI, _MULI, _ANDI, _SHLI, _SHRI, _XORI = (
            Opcode.ADDI, Opcode.MULI, Opcode.ANDI, Opcode.SHLI, Opcode.SHRI,
            Opcode.XORI)
        _CMPEQ, _CMPNE, _CMPLT, _CMPLE, _CMPGT, _CMPGE = (
            Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPLT, Opcode.CMPLE,
            Opcode.CMPGT, Opcode.CMPGE)
        _CMPEQI, _CMPNEI, _CMPLTI, _CMPLEI, _CMPGTI, _CMPGEI = (
            Opcode.CMPEQI, Opcode.CMPNEI, Opcode.CMPLTI, Opcode.CMPLEI,
            Opcode.CMPGTI, Opcode.CMPGEI)
        _FDIV, _CVTIF, _CVTFI, _CRC32, _SELECT, _MIN, _MAX = (
            Opcode.FDIV, Opcode.CVTIF, Opcode.CVTFI, Opcode.CRC32,
            Opcode.SELECT, Opcode.MIN, Opcode.MAX)
        _JMP, _BRZ, _BRNZ, _CALL, _RET, _KCALL, _HALT = (
            Opcode.JMP, Opcode.BRZ, Opcode.BRNZ, Opcode.CALL, Opcode.RET,
            Opcode.KCALL, Opcode.HALT)

        while True:
            if has_blocks:
                blk = blocks_get(ip)
                # a cold stub counts the entry and is no block yet; the
                # entry that makes it hot suspends for the driver's dispatch
                if (
                    blk is not None
                    and not (blk[2] < 0 and translation.cold_entry(ip))
                    and instructions + blk[1] <= max_instructions
                    and (config is None or self._countdown > blk[2])
                ):
                    state.cycles, state.instructions = cycles, instructions
                    return ip
            try:
                op, f1, f2, f3 = code[ip]
            except IndexError:
                state.cycles, state.instructions = cycles, instructions
                raise VMError("instruction fetch out of bounds", ip) from None
            instructions += 1
            if instructions > max_instructions:
                state.cycles, state.instructions = cycles, instructions
                raise InstructionBudgetExceeded(
                    f"instruction budget exceeded ({max_instructions})", ip
                )
            cost = 1
            memaddr = None

            if op == _LOAD:
                addr = regs[f2] + f3
                memaddr = addr
                if addr & 7 or addr < 8:
                    state.cycles, state.instructions = cycles, instructions
                    raise VMError(f"unaligned or null load at {addr:#x}", ip)
                try:
                    regs[f1] = words[addr >> 3]
                except IndexError:
                    state.cycles, state.instructions = cycles, instructions
                    raise VMError(f"load out of bounds at {addr:#x}", ip) from None
                cost = caches.access(addr)
                state.loads += 1
                if sample_on_loads:
                    self._countdown -= 1
                elif sample_on_l1 and cost > costs.LAT_L1:
                    self._countdown -= 1
            elif op == _STORE:
                addr = regs[f1] + f3
                memaddr = addr
                if addr & 7 or addr < 8:
                    state.cycles, state.instructions = cycles, instructions
                    raise VMError(f"unaligned or null store at {addr:#x}", ip)
                try:
                    words[addr >> 3] = regs[f2]
                except IndexError:
                    state.cycles, state.instructions = cycles, instructions
                    raise VMError(f"store out of bounds at {addr:#x}", ip) from None
                caches.access(addr)
                state.stores += 1
                cost = costs.CYCLES_STORE
            elif op == _ADDI:
                regs[f1] = regs[f2] + f3
            elif op == _ADD:
                regs[f1] = regs[f2] + regs[f3]
            elif op == _MOV:
                regs[f1] = regs[f2]
            elif op == _MOVI:
                regs[f1] = f2
            elif op == _CMPEQ:
                regs[f1] = 1 if regs[f2] == regs[f3] else 0
            elif op == _CMPNE:
                regs[f1] = 1 if regs[f2] != regs[f3] else 0
            elif op == _CMPLT:
                regs[f1] = 1 if regs[f2] < regs[f3] else 0
            elif op == _CMPLE:
                regs[f1] = 1 if regs[f2] <= regs[f3] else 0
            elif op == _CMPGT:
                regs[f1] = 1 if regs[f2] > regs[f3] else 0
            elif op == _CMPGE:
                regs[f1] = 1 if regs[f2] >= regs[f3] else 0
            elif op == _CMPEQI:
                regs[f1] = 1 if regs[f2] == f3 else 0
            elif op == _CMPNEI:
                regs[f1] = 1 if regs[f2] != f3 else 0
            elif op == _CMPLTI:
                regs[f1] = 1 if regs[f2] < f3 else 0
            elif op == _CMPLEI:
                regs[f1] = 1 if regs[f2] <= f3 else 0
            elif op == _CMPGTI:
                regs[f1] = 1 if regs[f2] > f3 else 0
            elif op == _CMPGEI:
                regs[f1] = 1 if regs[f2] >= f3 else 0
            elif op == _BRZ:
                cond_true = regs[f1] != 0
                taken = not cond_true
                miss = predictor.record(ip, taken)
                cost = costs.CYCLES_BRANCH + (costs.CYCLES_BRANCH_MISS if miss else 0)
                if miss and sample_on_brmiss:
                    self._countdown -= 1
                if taken:
                    cycles += cost
                    if sample_on_instr:
                        self._countdown -= 1
                    elif sample_on_cycles:
                        self._countdown -= cost
                    if self._countdown <= 0 and config is not None:
                        state.cycles, state.instructions = cycles, instructions
                        self._take_sample(ip, None, branch=cond_true)
                        cycles, instructions = state.cycles, state.instructions
                    ip = f2
                    continue
                cycles += cost
                ip += 1
                if sample_on_instr:
                    self._countdown -= 1
                elif sample_on_cycles:
                    self._countdown -= cost
                if self._countdown <= 0 and config is not None:
                    state.cycles, state.instructions = cycles, instructions
                    self._take_sample(ip - 1, None, branch=cond_true)
                    cycles, instructions = state.cycles, state.instructions
                continue
            elif op == _BRNZ:
                taken = regs[f1] != 0
                miss = predictor.record(ip, taken)
                cost = costs.CYCLES_BRANCH + (costs.CYCLES_BRANCH_MISS if miss else 0)
                if miss and sample_on_brmiss:
                    self._countdown -= 1
                if taken:
                    cycles += cost
                    if sample_on_instr:
                        self._countdown -= 1
                    elif sample_on_cycles:
                        self._countdown -= cost
                    if self._countdown <= 0 and config is not None:
                        state.cycles, state.instructions = cycles, instructions
                        self._take_sample(ip, None, branch=True)
                        cycles, instructions = state.cycles, state.instructions
                    ip = f2
                    continue
                cycles += cost
                ip += 1
                if sample_on_instr:
                    self._countdown -= 1
                elif sample_on_cycles:
                    self._countdown -= cost
                if self._countdown <= 0 and config is not None:
                    state.cycles, state.instructions = cycles, instructions
                    self._take_sample(ip - 1, None, branch=False)
                    cycles, instructions = state.cycles, state.instructions
                continue
            elif op == _JMP:
                cycles += costs.CYCLES_BRANCH
                if sample_on_instr:
                    self._countdown -= 1
                elif sample_on_cycles:
                    self._countdown -= costs.CYCLES_BRANCH
                if self._countdown <= 0 and config is not None:
                    state.cycles, state.instructions = cycles, instructions
                    self._take_sample(ip, None)
                    cycles, instructions = state.cycles, state.instructions
                ip = f1
                continue
            elif op == _SUB:
                regs[f1] = regs[f2] - regs[f3]
            elif op == _MUL:
                r = regs[f2] * regs[f3]
                if isinstance(r, int):
                    r &= _MASK64
                    if r & _SIGN64:
                        r -= 1 << 64
                regs[f1] = r
                cost = costs.CYCLES_MUL
            elif op == _MULI:
                r = regs[f2] * f3
                if isinstance(r, int):
                    r &= _MASK64
                    if r & _SIGN64:
                        r -= 1 << 64
                regs[f1] = r
                cost = costs.CYCLES_MUL
            elif op == _SDIV:
                try:
                    regs[f1] = _sdiv(regs[f2], regs[f3])
                except ZeroDivisionError:
                    state.cycles, state.instructions = cycles, instructions
                    raise VMError("division by zero", ip) from None
                cost = costs.CYCLES_DIV
            elif op == _SREM:
                b = regs[f3]
                if b == 0:
                    state.cycles, state.instructions = cycles, instructions
                    raise VMError("remainder by zero", ip)
                a = regs[f2]
                regs[f1] = a - b * _sdiv(a, b)
                cost = costs.CYCLES_DIV
            elif op == _AND:
                regs[f1] = regs[f2] & regs[f3]
            elif op == _OR:
                regs[f1] = regs[f2] | regs[f3]
            elif op == _XOR:
                regs[f1] = regs[f2] ^ regs[f3]
            elif op == _SHL:
                regs[f1] = (regs[f2] << (regs[f3] & 63)) & _MASK64
            elif op == _SHR:
                regs[f1] = (regs[f2] & _MASK64) >> (regs[f3] & 63)
            elif op == _ROTR:
                v = regs[f2] & _MASK64
                s = regs[f3] & 63
                regs[f1] = ((v >> s) | (v << (64 - s))) & _MASK64
            elif op == _ANDI:
                regs[f1] = regs[f2] & f3
            elif op == _SHLI:
                regs[f1] = (regs[f2] << (f3 & 63)) & _MASK64
            elif op == _SHRI:
                regs[f1] = (regs[f2] & _MASK64) >> (f3 & 63)
            elif op == _XORI:
                regs[f1] = regs[f2] ^ f3
            elif op == _FDIV:
                b = regs[f3]
                if b == 0:
                    state.cycles, state.instructions = cycles, instructions
                    raise VMError("fdiv by zero", ip)
                regs[f1] = regs[f2] / b
                cost = costs.CYCLES_DIV
            elif op == _CVTIF:
                regs[f1] = float(regs[f2])
            elif op == _CVTFI:
                regs[f1] = int(regs[f2])
            elif op == _CRC32:
                regs[f1] = crc32_mix(regs[f2], regs[f3])
                cost = costs.CYCLES_CRC32
            elif op == _SELECT:
                rt, rf = f3
                regs[f1] = regs[rt] if regs[f2] else regs[rf]
            elif op == _MIN:
                a, b = regs[f2], regs[f3]
                regs[f1] = a if a <= b else b
            elif op == _MAX:
                a, b = regs[f2], regs[f3]
                regs[f1] = a if a >= b else b
            elif op == _CALL:
                cost = costs.CYCLES_CALL
                cycles += cost
                self.call_stack.append(ip + 1)
                if len(self.call_stack) > 256:
                    state.cycles, state.instructions = cycles, instructions
                    raise VMError("call stack overflow", ip)
                if sample_on_instr:
                    self._countdown -= 1
                elif sample_on_cycles:
                    self._countdown -= cost
                if self._countdown <= 0 and config is not None:
                    state.cycles, state.instructions = cycles, instructions
                    self._take_sample(ip, None)
                    cycles, instructions = state.cycles, state.instructions
                ip = f1
                continue
            elif op == _RET:
                cost = costs.CYCLES_RET
                cycles += cost
                ret = self.call_stack.pop()
                if sample_on_instr:
                    self._countdown -= 1
                elif sample_on_cycles:
                    self._countdown -= cost
                if self._countdown <= 0 and config is not None:
                    state.cycles, state.instructions = cycles, instructions
                    self._take_sample(ip, None)
                    cycles, instructions = state.cycles, state.instructions
                if ret < 0:
                    state.cycles, state.instructions = cycles, instructions
                    return -1
                ip = ret
                continue
            elif op == _KCALL:
                state.cycles, state.instructions = cycles, instructions
                if self.kernel is None:
                    raise VMError("kernel call without a kernel", ip)
                self.kernel.call(self, f1)
                cycles, instructions = state.cycles, state.instructions
                ip += 1
                continue
            elif op == _NOP:
                pass
            elif op == _HALT:
                state.cycles, state.instructions = cycles, instructions
                self.call_stack.pop()
                return -1
            else:
                state.cycles, state.instructions = cycles, instructions
                raise VMError(f"illegal opcode {op}", ip)

            cycles += cost
            if sample_on_instr:
                self._countdown -= 1
            elif sample_on_cycles:
                self._countdown -= cost
            if self._countdown <= 0 and config is not None:
                state.cycles, state.instructions = cycles, instructions
                self._take_sample(ip, memaddr)
                cycles, instructions = state.cycles, state.instructions
            ip += 1
