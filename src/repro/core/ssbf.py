"""Store sequence Bloom filters (Sections 2.2, 3.4, 3.5).

The SVW filter tracks, per (hashed) address, the SSN of the youngest
committed store to write there.  The original SSBF is direct-mapped and
untagged, safe only for *inequality* tests (aliasing can only cause
spurious re-executions, never missed ones).  :class:`TaggedSSBF` (T-SSBF),
the only filter this model uses, adds tags with FIFO sets, enabling the
*equality* test NoSQ's bypassed loads need ("equality tests ... are unsafe
in the presence of aliasing, necessitating tags").  Each entry also holds
the store's low-order address bits and access size so that partial-word
shift predictions can be verified without replay (Section 3.5).  Per the
paper's configuration each entry is 8 bytes: a 20-bit SSN, 3-bit offset,
3-bit size, and a 38-bit tag; 128 entries, 4-way.  A misaligned store that
straddles two words also records, in the second word's entry, that it
began in the word before (a negative offset); the paper's aligned Alpha
stores never need that extra bit.

The filter tracks addresses at 8-byte-word granularity.  On a tag miss the
T-SSBF cannot prove the load safe against stores whose entries were evicted,
so each set maintains the maximum SSN it ever evicted; the inequality test
compares against this watermark, keeping the filter conservative.
"""

from __future__ import annotations

from dataclasses import dataclass

_WORD_SHIFT = 3  # 8-byte filter granularity


@dataclass(slots=True)
class SSBFEntry:
    ssn: int
    #: Store start address minus the word's base address: its low-order
    #: bits, or -1..-7 when the store began in the previous word.
    offset: int
    size: int    # store access size in bytes

    @property
    def store_range(self) -> tuple[int, int]:
        """(start, end) byte offsets of the store within its word."""
        return max(self.offset, 0), min(self.offset + self.size, 8)


class TaggedSSBF:
    """Tagged, set-associative SSBF with FIFO replacement per set."""

    def __init__(self, entries: int = 128, assoc: int = 4) -> None:
        if assoc < 1 or entries < assoc or entries % assoc:
            raise ValueError(
                f"T-SSBF entries ({entries}) must be a positive multiple of "
                f"its associativity ({assoc})"
            )
        self.num_sets = entries // assoc
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(
                f"T-SSBF set count ({self.num_sets}) must be a power of two"
            )
        self.assoc = assoc
        self._index_mask = self.num_sets - 1
        self._tag_shift = self.num_sets.bit_length() - 1
        self._sets: list[dict[int, SSBFEntry]] = [dict() for _ in range(self.num_sets)]
        #: per-set maximum SSN ever evicted (conservative watermark).
        self._evicted: list[int] = [0] * self.num_sets
        #: Maximum SSN ever recorded (entry or watermark).  Because stores
        #: update the filter in commit (SSN) order this equals the youngest
        #: committed store's SSN; it upper-bounds every per-word answer, so
        #: ``youngest_store_ssn(...) <= max_recorded_ssn`` always holds and
        #: the SVW inequality test can short-circuit the common
        #: no-younger-store case without walking the sets.
        self.max_recorded_ssn = 0
        self.updates = 0
        self.lookups = 0

    def _locate(self, word: int) -> tuple[int, int]:
        return word & self._index_mask, word >> self._tag_shift

    def update(self, addr: int, size: int, ssn: int) -> None:
        """Record a committing store (SVW stage of the back-end pipeline)."""
        self.updates += 1
        if ssn > self.max_recorded_ssn:
            self.max_recorded_ssn = ssn
        first = addr >> _WORD_SHIFT
        last = (addr + size - 1) >> _WORD_SHIFT
        words = (first,) if first == last else range(first, last + 1)
        for word in words:
            # _locate inlined (runs per committed store).
            index = word & self._index_mask
            entries = self._sets[index]
            tag = word >> self._tag_shift
            # Offsets are relative to the store's own start, so a shift
            # verified against the entry is the shift from the store.
            offset = addr - (word << _WORD_SHIFT)
            entry = entries.get(tag)
            if entry is not None:
                entry.ssn = ssn
                entry.offset = offset
                entry.size = size
                continue
            if len(entries) >= self.assoc:
                victim_tag = next(iter(entries))
                victim = entries.pop(victim_tag)
                if victim.ssn > self._evicted[index]:
                    self._evicted[index] = victim.ssn
            entries[tag] = SSBFEntry(ssn=ssn, offset=offset, size=size)

    def lookup(self, addr: int) -> SSBFEntry | None:
        """Look up the word containing *addr*; None on tag miss."""
        self.lookups += 1
        index, tag = self._locate(addr >> _WORD_SHIFT)
        return self._sets[index].get(tag)

    def evicted_watermark(self, addr: int) -> int:
        """Max SSN evicted from the set covering *addr* (0 if none)."""
        index, _ = self._locate(addr >> _WORD_SHIFT)
        return self._evicted[index]

    def youngest_store_ssn(self, addr: int, size: int) -> int:
        """Conservative upper bound on the SSN of the youngest committed
        store overlapping [addr, addr+size): the max over touched words of
        the entry SSN or eviction watermark."""
        first = addr >> _WORD_SHIFT
        last = (addr + size - 1) >> _WORD_SHIFT
        if first == last:
            # Aligned (single-word) access: one set probe, no range object.
            index = first & self._index_mask
            entry = self._sets[index].get(first >> self._tag_shift)
            youngest = self._evicted[index]
            if entry is not None and entry.ssn > youngest:
                return entry.ssn
            return youngest
        youngest = 0
        for word in range(first, last + 1):
            index, tag = self._locate(word)
            entry = self._sets[index].get(tag)
            if entry is not None:
                youngest = max(youngest, entry.ssn)
            youngest = max(youngest, self._evicted[index])
        return youngest

    def clear(self) -> None:
        """Full clear (SSN wraparound drain)."""
        for entries in self._sets:
            entries.clear()
        self._evicted = [0] * self.num_sets
        self.max_recorded_ssn = 0
