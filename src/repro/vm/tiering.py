"""Tiered adaptive execution: profile-driven trace specialization.

The controller closes the loop the paper's multi-level profiles open:
tier 0 is the exact interpreter, tier 1 the template-translated
superblocks (:mod:`repro.vm.translate`), and tier 2 a *recompilation* of
the same program specialized against the rolling profile — per-program
retired-instruction counts decide hotness, and per-block entry counts
decide where the specialized layout grows superblock trees beyond loop
heads; loop superblocks additionally defer their counter/register sync
and every block memoizes the cache line of its previous memory access.

Promotion is a pure wall-clock optimization: tier choice never changes
simulated counters, sample streams, or results (the fuzz oracle's
``tiered`` config enforces this bit-exactly).  Every specialized loop
re-checks its guards at the back edge; a miss flushes the deferred state
— registers, counters, PMU countdown, predictor — exactly and deopts to
tier 1, so in-flight sampling windows stay bit-identical.

Commit points: new tier-2 maps install only at machine construction and
at :meth:`apply` calls, which the serve scheduler issues at morsel
boundaries (its unit dispatch) — an in-flight long query re-tiers at the
next morsel, never mid-block.
"""

from __future__ import annotations

import weakref

from repro.vm import costs
from repro.vm.isa import Program
from repro.vm.translate import translation_for, translation_key

# Worst-case event bound allowed for a tier-2 armed superblock tree, as
# a right-shift of the sampling period.  Tier 1 uses 1/8 of the period
# (see Machine.__init__); tier-2 traces keep the same cap — the
# segmented linear fallbacks make rejection cheap, but a larger cap also
# raises the bound that gates *loop re-entry*, and that trade measures
# as a wash at the serve period.
TIER2_BOUND_SHIFT = 3


def _tier2_bound_cap(config) -> int:
    return config.period >> TIER2_BOUND_SHIFT if config is not None else 0


class TieringController:
    """Decides when a program graduates from tier 1 to tier 2.

    One controller serves one execution context (a ``Database`` or a
    ``QueryService``); it accumulates retired instructions and block
    entries per program, and once a program crosses ``hot_instructions``
    it recompiles the program's translation at tier 2, seeded with a
    snapshot of the entry counts as the hot-block profile.

    ``guard_hook=True`` compiles the test-only forced-deopt guard
    (``machine._tier_guard``) into every specialized loop edge; the
    production default pays zero cost for it.  ``trip_guard=True``
    additionally arms that guard on every machine the controller
    promotes, so the very first specialized loop edge deoptimizes —
    the fuzz oracle uses it to drive the deopt path through the whole
    engine stack and still demand bit-identical machine state.
    """

    def __init__(
        self,
        hot_instructions: int | None = None,
        guard_hook: bool = False,
        trip_guard: bool = False,
    ):
        self.hot_instructions = (
            costs.TIER2_HOT_INSTRUCTIONS
            if hot_instructions is None
            else hot_instructions
        )
        self.guard_hook = guard_hook
        self.trip_guard = trip_guard and guard_hook
        self.version = 0  # bumped on every promotion; machines compare epochs
        self.promotions = 0
        self.deopts = 0
        self.deopt_sites: list[int] = []
        # Program is an eq-comparing dataclass (unhashable), so the
        # profile is keyed by identity with weakref finalizers keeping
        # the maps from pinning dead programs.
        self._counts: dict[int, int] = {}
        self._entries: dict[int, dict[int, int]] = {}
        self._hot: dict[int, bool] = {}

    def _key(self, program: Program) -> int:
        pid = id(program)
        if pid not in self._counts:
            self._counts[pid] = 0
            self._entries[pid] = {}
            weakref.finalize(program, self._forget, pid)
        return pid

    def _forget(self, pid: int) -> None:
        self._counts.pop(pid, None)
        self._entries.pop(pid, None)
        self._hot.pop(pid, None)

    # ------------------------------------------------------------------
    # profile consumption

    def observe(self, machine, instructions: int) -> bool:
        """Feed ``instructions`` retired by ``machine`` into the profile.

        Returns True when this observation promoted the program."""
        pid = self._key(machine.program)
        count = self._counts[pid] + instructions
        self._counts[pid] = count
        entries = self._entries[pid]
        for ip, n in machine.block_entries.items():
            entries[ip] = entries.get(ip, 0) + n
        machine.block_entries.clear()
        if count < self.hot_instructions or self._hot.get(pid):
            return False
        self._hot[pid] = True
        self._promote(machine)
        return True

    def _promote(self, machine) -> None:
        program = machine.program
        config = machine.pmu_config
        event = config.event if config is not None else None
        pid = self._key(program)
        # a frozen copy: the translation compiles each block on first
        # entry, and a block compiled later must specialize against the
        # profile as it stood at promotion
        entry = translation_for(
            program, event, _tier2_bound_cap(config), tier=2,
            entries=dict(self._entries[pid]),
            guard_hook=self.guard_hook,
        )
        self.promotions += 1
        self.version += 1
        # the observing machine re-tiers immediately (it sits at a call
        # boundary); everyone else picks it up at their next apply()
        machine._tier_epoch = self.version
        machine.install_tier2(entry, guarded=self.guard_hook)
        if self.trip_guard:
            machine._tier_guard = True

    # ------------------------------------------------------------------
    # commit points

    def apply(self, machine) -> None:
        """Install any pending tier-2 map on ``machine``.

        Cheap enough for per-dispatch use: an int compare unless a
        promotion happened since this machine last looked.  The serve
        scheduler calls this on every unit dispatch, which is what makes
        morsel boundaries the re-tier commit points.
        """
        if machine._tier_epoch == self.version:
            return
        machine._tier_epoch = self.version
        if machine._fast_blocks is None or machine.tier >= 2:
            return
        config = machine.pmu_config
        event = config.event if config is not None else None
        bound_cap = _tier2_bound_cap(config)
        cache = getattr(machine.program, "_vm_translations", None)
        if not cache:
            return
        entry = cache.get(
            translation_key(event, bound_cap, 2, self.guard_hook)
        )
        if entry is not None and not entry.stale_for(machine.program):
            machine.install_tier2(entry, guarded=self.guard_hook)
            if self.trip_guard:
                machine._tier_guard = True

    # ------------------------------------------------------------------
    # deoptimization accounting

    def note_deopt(self, program, ip: int) -> None:
        self.deopts += 1
        self.deopt_sites.append(ip)

    def tier_for(self, program) -> int:
        """The tier a fresh machine for ``program`` would start at."""
        return 2 if self._hot.get(id(program)) else 1

    def stats(self) -> dict:
        return {
            "promotions": self.promotions,
            "deopts": self.deopts,
            "hot_programs": sum(1 for hot in self._hot.values() if hot),
        }
