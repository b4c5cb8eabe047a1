"""A per-IP 2-bit saturating-counter branch predictor.

Conditional branch cost depends on predictability; this is the mechanism
behind the paper's optimizer-developer use case (Fig. 10/11), where a plan
whose probe filter flips from always-match to never-match mid-scan wins over
one with a data-dependent branch.
"""

from __future__ import annotations


class BranchPredictor:
    """2-bit counters: 0,1 predict not-taken; 2,3 predict taken."""

    def __init__(self):
        self.counters: dict[int, int] = {}
        self.branches = 0
        self.mispredicts = 0

    def state(self) -> dict[int, int]:
        """The counters by value: an absent key *is* the initial 1 (a
        deferred write-back leaves none where 1 -> 2 -> 1 leaves one)."""
        return {ip: n for ip, n in self.counters.items() if n != 1}

    def record(self, ip: int, taken: bool) -> bool:
        """Record the outcome of the branch at ``ip``; return True on miss."""
        self.branches += 1
        counter = self.counters.get(ip, 1)
        predicted_taken = counter >= 2
        if taken:
            if counter < 3:
                self.counters[ip] = counter + 1
        else:
            if counter > 0:
                self.counters[ip] = counter - 1
        miss = predicted_taken != taken
        if miss:
            self.mispredicts += 1
        return miss
