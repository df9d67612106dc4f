"""Set-associative TLB model (128-entry, 4-way in Section 4.1).

NoSQ's back-end pipeline translates store addresses (and the addresses of
bypassed loads that must re-execute) using the single store TLB port moved
from the out-of-order core (Section 3.4).  The timing model charges a fixed
miss penalty for TLB misses; the T-SSBF is virtually tagged, so translation
stays off the SVW filter path.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TLBStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class TLB:
    """A set-associative translation lookaside buffer with LRU replacement."""

    def __init__(
        self,
        entries: int = 128,
        assoc: int = 4,
        page_bytes: int = 4096,
        miss_penalty: int = 30,
    ) -> None:
        if assoc < 1 or entries < assoc or entries % assoc:
            raise ValueError(
                f"TLB entries ({entries}) must be a positive multiple of "
                f"its associativity ({assoc})"
            )
        self.num_sets = entries // assoc
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(
                f"TLB set count ({self.num_sets}) must be a power of two"
            )
        self.assoc = assoc
        self.page_bytes = page_bytes
        self.miss_penalty = miss_penalty
        self.stats = TLBStats()
        self._sets: list[dict[int, None]] = [dict() for _ in range(self.num_sets)]
        self._page_shift = page_bytes.bit_length() - 1

    def access(self, addr: int) -> int:
        """Translate *addr*; returns the added latency (0 on hit)."""
        vpn = addr >> self._page_shift
        index = vpn & (self.num_sets - 1)
        tag = vpn >> (self.num_sets.bit_length() - 1)
        tlb_set = self._sets[index]
        if tag in tlb_set:
            tlb_set.pop(tag)
            tlb_set[tag] = None
            self.stats.hits += 1
            return 0
        self.stats.misses += 1
        if len(tlb_set) >= self.assoc:
            tlb_set.pop(next(iter(tlb_set)))
        tlb_set[tag] = None
        return self.miss_penalty

    def invalidate_all(self) -> None:
        for tlb_set in self._sets:
            tlb_set.clear()
