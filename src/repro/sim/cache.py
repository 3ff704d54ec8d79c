"""Set-associative cache model (the SoC's L1/L2 hierarchy).

The paper's SoC carries a 32 KB L1d and a 512 KB L2 (Section IV-A); the
cache-sensitivity study (Section IV-B) shrinks them to 16 KB / 64 KB.  This
is a classic write-back, write-allocate, LRU, set-associative model with
hit/miss statistics; the analytic performance model uses closed-form
traffic instead (validated against this simulator in the tests), while the
DSE and education-oriented examples drive this one directly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.errors import ReproError


class CacheError(ReproError, ValueError):
    """Raised for invalid cache geometries."""


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass
class CacheStats:
    """Access counters for one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """One write-back, write-allocate, LRU set-associative cache level."""

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int = 64,
        associativity: int = 8,
        *,
        name: str = "cache",
        next_level: "Cache | None" = None,
    ) -> None:
        if not _is_pow2(line_bytes):
            raise CacheError(f"line size must be a power of two: {line_bytes}")
        if size_bytes % (line_bytes * associativity):
            raise CacheError(
                f"{name}: size {size_bytes} not divisible by "
                f"line {line_bytes} x ways {associativity}"
            )
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.n_sets = size_bytes // (line_bytes * associativity)
        self.name = name
        self.next_level = next_level
        self.stats = CacheStats()
        # sets[set_index] maps tag -> dirty flag, in LRU order (last=MRU).
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.n_sets)
        ]

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self.line_bytes
        return line % self.n_sets, line // self.n_sets

    def access(self, address: int, *, write: bool = False) -> bool:
        """Access one byte address; returns True on hit.

        Misses recurse into the next level (write-allocate), evicting LRU
        lines and writing back dirty victims.
        """
        set_idx, tag = self._locate(address)
        ways = self._sets[set_idx]
        if tag in ways:
            self.stats.hits += 1
            ways.move_to_end(tag)
            if write:
                ways[tag] = True
            return True
        self.stats.misses += 1
        if self.next_level is not None:
            self.next_level.access(address, write=False)
        if len(ways) >= self.associativity:
            _, dirty = ways.popitem(last=False)
            self.stats.evictions += 1
            if dirty:
                self.stats.writebacks += 1
                if self.next_level is not None:
                    # Write the victim back one level down.
                    self.next_level.stats.hits += 1
        ways[tag] = write
        return False

    def access_range(self, address: int, n_bytes: int, *,
                     write: bool = False) -> int:
        """Access a contiguous range; returns the number of line misses."""
        first = address // self.line_bytes
        last = (address + n_bytes - 1) // self.line_bytes
        misses = 0
        for line in range(first, last + 1):
            if not self.access(line * self.line_bytes, write=write):
                misses += 1
        return misses

    def flush(self) -> None:
        """Drop all contents (keep statistics)."""
        for ways in self._sets:
            ways.clear()

    def reset_stats(self) -> None:
        self.stats = CacheStats()


@dataclass
class CacheHierarchy:
    """The SoC's two-level data-cache hierarchy with latency accounting."""

    l1_size: int = 32 * 1024
    l2_size: int = 512 * 1024
    line_bytes: int = 64
    l1_assoc: int = 8
    l2_assoc: int = 8
    # Memory-hierarchy latencies are SoC simulation parameters, not
    # u-kernel issue costs: they are outside the calibrated cost
    # model's digest on purpose.
    l1_latency: int = 2      # repro: noqa REP013
    l2_latency: int = 12     # repro: noqa REP013
    dram_latency: int = 80   # repro: noqa REP013
    l1: Cache = field(init=False)
    l2: Cache = field(init=False)

    def __post_init__(self) -> None:
        self.l2 = Cache(self.l2_size, self.line_bytes, self.l2_assoc,
                        name="L2")
        self.l1 = Cache(self.l1_size, self.line_bytes, self.l1_assoc,
                        name="L1d", next_level=self.l2)

    def load(self, address: int, n_bytes: int = 8) -> int:
        """Load; returns the modelled latency in cycles."""
        l1_hits_before = self.l1.stats.hits
        l2_misses_before = self.l2.stats.misses
        self.l1.access_range(address, n_bytes)
        if self.l1.stats.hits > l1_hits_before and \
                self.l2.stats.misses == l2_misses_before:
            return self.l1_latency
        if self.l2.stats.misses > l2_misses_before:
            return self.dram_latency
        return self.l2_latency

    def store(self, address: int, n_bytes: int = 8) -> int:
        l2_misses_before = self.l2.stats.misses
        hit = self.l1.access_range(address, n_bytes, write=True) == 0
        if hit:
            return self.l1_latency
        if self.l2.stats.misses > l2_misses_before:
            return self.dram_latency
        return self.l2_latency

    def reset(self) -> None:
        self.l1.flush()
        self.l2.flush()
        self.l1.reset_stats()
        self.l2.reset_stats()
