"""Set-associative cache timing model with true-LRU replacement.

The model tracks tags only (the timing simulator never needs cached data --
architectural values live in :class:`repro.memory.SparseMemory`), which keeps
the per-access cost low enough for cycle-level simulation in Python.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    """Hit/miss counters, split by access type."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    writebacks: int = 0

    @property
    def reads(self) -> int:
        return self.read_hits + self.read_misses

    @property
    def writes(self) -> int:
        return self.write_hits + self.write_misses

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return (self.read_misses + self.write_misses) / total if total else 0.0


class Cache:
    """A write-back, write-allocate, set-associative cache.

    Each set is an ordered dict from tag to dirty bit; ordering encodes LRU
    (last item = most recently used).
    """

    def __init__(
        self,
        size_bytes: int,
        assoc: int,
        line_bytes: int = 64,
        name: str = "cache",
    ) -> None:
        if line_bytes < 1 or line_bytes & (line_bytes - 1):
            raise ValueError(
                f"{name} line size must be a power of two, got {line_bytes}"
            )
        way_bytes = assoc * line_bytes
        if assoc < 1 or size_bytes < way_bytes or size_bytes % way_bytes:
            raise ValueError(
                f"{name} size ({size_bytes}) must be a positive multiple of "
                f"assoc * line size ({assoc} * {line_bytes})"
            )
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // way_bytes
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(
                f"{name} set count ({self.num_sets}) must be a power of two"
            )
        self.name = name
        self.stats = CacheStats()
        self._sets: list[dict[int, bool]] = [dict() for _ in range(self.num_sets)]
        self._set_mask = self.num_sets - 1
        self._line_shift = line_bytes.bit_length() - 1
        self._tag_shift = self.num_sets.bit_length() - 1

    def _index_tag(self, addr: int) -> tuple[int, int]:
        line = addr >> self._line_shift
        return line & self._set_mask, line >> self._tag_shift

    def lookup(self, addr: int) -> bool:
        """Non-destructive presence check (no LRU update, no stats)."""
        index, tag = self._index_tag(addr)
        return tag in self._sets[index]

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Access the line containing *addr*; allocate on miss.

        Returns True on hit.  The caller translates hit/miss into latency via
        the hierarchy model.
        """
        # _index_tag inlined: this runs for every cache access in the model.
        line = addr >> self._line_shift
        cache_set = self._sets[line & self._set_mask]
        tag = line >> self._tag_shift
        hit = tag in cache_set
        if hit:
            dirty = cache_set.pop(tag) or is_write
            cache_set[tag] = dirty
            if is_write:
                self.stats.write_hits += 1
            else:
                self.stats.read_hits += 1
        else:
            if is_write:
                self.stats.write_misses += 1
            else:
                self.stats.read_misses += 1
            if len(cache_set) >= self.assoc:
                victim_tag = next(iter(cache_set))
                if cache_set.pop(victim_tag):
                    self.stats.writebacks += 1
            cache_set[tag] = is_write
        return hit

    def invalidate_all(self) -> None:
        """Flush the cache (used by SSN-wraparound pipeline drains)."""
        for cache_set in self._sets:
            cache_set.clear()

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)
