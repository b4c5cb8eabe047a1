"""Tiered adaptive execution: when a program graduates to tier 2.

Tier 0 is the exact interpreter, tier 1 the template-translated
superblocks and tier 2 the same translation re-emitted against its own
tier-1 profile (:mod:`repro.vm.translate`: deferred sync at loop heads,
hot-block trees where the per-block entry counts say so).  The tier
belongs to the program's
:class:`~repro.vm.translate.Translation`, so every machine and every
caller sharing a cached plan shares its tier; what is per execution
context — a ``Database`` or a ``QueryService`` — is only the policy
here: how many retired instructions make a program hot, and how many
programs this context promoted.

Promotion is a pure wall-clock optimization: tier choice never changes
simulated counters, sample streams, or results (the fuzz oracle's
``tiered`` config enforces this bit-exactly), and nothing at tier 2
speculates, so nothing demotes.  It happens inside :meth:`observe`,
which callers issue between machine calls — after a run, or after a
serve unit — so an in-flight long query re-tiers at its next morsel,
never mid-block.
"""

from __future__ import annotations

import weakref

from repro.vm import costs


class TieringController:
    """The promotion policy of one execution context."""

    def __init__(self, hot_instructions: int | None = None):
        self.hot_instructions = (
            costs.TIER2_HOT_INSTRUCTIONS
            if hot_instructions is None
            else hot_instructions
        )
        self.promotions = 0
        # translations this context promoted that are still alive (an
        # evicted plan takes its translation with it)
        self._hot = weakref.WeakSet()

    def observe(self, machine, instructions: int) -> bool:
        """Credit ``instructions`` retired by ``machine`` to its program.

        Call between machine calls only.  Returns True when this
        observation promoted the program."""
        translation = machine.translation
        if translation is None or translation.tier >= 2:
            return False
        translation.retired += instructions
        if translation.retired < self.hot_instructions:
            return False
        translation.promote()
        self.promotions += 1
        self._hot.add(translation)
        return True

    def stats(self) -> dict:
        return {
            "promotions": self.promotions,
            "hot_programs": len(self._hot),
        }
