"""Every calibration constant of the simulated machine, in one place.

The paper's evaluation numbers (35 % sampling overhead at one sample per
5000 events, +3 % for register payloads, 529 % for call-stack sampling,
2.8 % for reserving a tag register) come from real Skylake-X hardware.  Our
substitute machine reproduces the *mechanisms* — per-sample record cost,
payload-dependent cost, interrupt-driven stack walks, register-pressure
spills — and these constants calibrate the mechanisms into the paper's
regime.  They are deliberately centralized so a reader can audit what is
model and what is mechanism.
"""

from __future__ import annotations

# --- core pipeline ------------------------------------------------------

CYCLES_ALU = 1  # add/sub/logic/compare/mov
CYCLES_MUL = 3
CYCLES_DIV = 20  # sdiv/srem/fdiv — TPC-H Q1-style avg() chains hurt, as in Listing 1
CYCLES_CRC32 = 3  # x86 crc32 is 3 cycles latency
CYCLES_BRANCH = 1
CYCLES_BRANCH_MISS = 14  # mispredict penalty
CYCLES_CALL = 2
CYCLES_RET = 2
# Stores retire at a fixed cost: a store buffer absorbs the write, so the
# retiring instruction never waits for the cache hierarchy (write-allocate
# still *updates* cache state — the interpreter and the fast VM both call
# ``caches.access`` on the store path and deliberately discard the returned
# latency).  Loads, by contrast, pay the returned hit-level latency because
# the dependent instruction needs the value.  Covered by
# ``test_store_cost_is_fixed_but_allocates`` in tests/test_vm_machine.py.
CYCLES_STORE = 1

# --- memory hierarchy ---------------------------------------------------

CACHE_LINE = 64
L1_SIZE = 32 * 1024
L1_WAYS = 8
L2_SIZE = 1024 * 1024
L2_WAYS = 16
LAT_L1 = 3
LAT_L2 = 14
LAT_MEM = 80

# --- PEBS-like sampling unit -------------------------------------------
#
# A PEBS record write is a microcode assist; recording more state costs
# more.  Call-stack capture cannot be done by the PEBS assist — it needs an
# interrupt plus a frame walk, which is the order-of-magnitude gap the
# paper measures (529 % vs 38 %).

PEBS_RECORD_CYCLES = 1680  # base cost: IP + TSC record
PEBS_REGS_EXTRA_CYCLES = 150  # additionally latching the register file
PEBS_MEMADDR_EXTRA_CYCLES = 40  # linear-address reconstruction
INTERRUPT_CYCLES = 23000  # PMI + kernel entry/exit for call-stack mode
CALLSTACK_FRAME_CYCLES = 1200  # per frame walked and copied
PEBS_BUFFER_SAMPLES = 2048  # records before the kernel must drain
BUFFER_FLUSH_PER_SAMPLE = 90  # kernel copy-out cost per drained record

# --- kernel "syscalls" --------------------------------------------------

KERNEL_CALL_BASE = 90  # trap + dispatch
KERNEL_ALLOC_PER_KB = 4  # page-zeroing style per-KiB cost
KERNEL_SORT_PER_ELEM = 9  # comparison sort amortized per n*log(n) step
KERNEL_OUTPUT_PER_VALUE = 5  # copying a result value to the client

# --- fast VM (template-translated basic blocks) --------------------------
#
# The translated engine retires whole basic blocks at a time and pays the
# PMU countdown in block-sized chunks; a block only runs fast when the
# countdown exceeds the static events of its longest path, otherwise the
# interpreter finishes the sampling window exactly.  Below this period the
# bounds reject nearly every block and the per-block checks are pure
# overhead, so the fast engine disarms itself entirely.

FAST_VM_MIN_PERIOD = 128
FAST_VM_MAX_BLOCK = 48  # armed traces stay short (docs/TIERING.md)
# With the PMU unarmed there is no countdown to protect, so unarmed
# translations may grow much longer traces — fewer driver transitions on
# hot loops (the instruction-budget check stays conservative either way)
FAST_VM_MAX_BLOCK_PLAIN = 512
# A leader runs interpreted until it has been entered FAST_VM_HOT_ENTRIES
# times (compiling a guest instruction costs ~160 interpreted executions).
# Trees leave out continuations never entered; a pruned exit turning hot
# recompiles its root, at most FAST_VM_REGROW_LIMIT times, last unpruned.
FAST_VM_HOT_ENTRIES = 16
FAST_VM_REGROW_LIMIT = 3

# --- tiered adaptive execution (repro.vm.tiering) ------------------------
#
# Tier 2 re-emits a hot program's blocks as profile-specialized traces:
# deferred counter/register sync in loop heads (flushed at real exits
# and whenever a sampling window or the instruction budget is about to
# end), hot-block trees and larger superblock trees.  Promotion triggers
# once a program has retired this many simulated instructions under
# observation; the larger tree limits apply only at tier 2, where
# compile time is paid exclusively for regions the profile already
# proved hot.

TIER2_HOT_INSTRUCTIONS = 200_000
TIER2_TREE_BUDGET = 6144
TIER2_TREE_DEPTH = 16
# A block the profile saw entered at least this often is "hot" even when
# it is not a loop head — typically one link of a per-row probe chain.
# Tier 2 grows superblock trees at hot blocks too, inlining the chain's
# continuations so one driver dispatch covers the whole per-row path.
TIER2_HOT_BLOCK_ENTRIES = 128

# --- sampling defaults (the paper's experimental setup) ------------------

DEFAULT_PERIOD_CYCLES = 5000  # one sample per 5000 cycles (0.7 MHz at 3.5 GHz)
DEFAULT_PERIOD_INSTRUCTIONS = 5000  # INST_RETIRED-style uniform sampling
DEFAULT_PERIOD_LOADS = 1000  # MEM_INST_RETIRED.ALL_LOADS every 1000 loads

# The paper samples INST_RETIRED.PREC_DIST, yet its Listing 1 shows 32 % of
# samples on a single load: on real hardware the recorded IPs are biased
# toward stalled (long-latency) instructions.  Our machine's retirement is
# idealized, so uniform instruction sampling would lose that bias — the
# engine therefore samples CPU cycles by default, which reproduces the
# stall-biased IP distribution (see DESIGN.md).
