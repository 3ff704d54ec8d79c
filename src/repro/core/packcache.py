"""Packing cache: pack each operand once, reuse it across GEMM calls.

The BLIS lineage this library reproduces amortizes packing across the
macro-kernel and packs static weights exactly once per deployment
(Mix-GEMM Section III-A; Martinez et al. make the same point for the
whole mixed-precision GEMM family).  The reference ``MixGemm.gemm``
instead re-packs both operands on every call -- correct, but it turns
repeated inference over a fixed graph into a packing benchmark.

:class:`PackingCache` closes that gap for the event backend (the fast
path never materializes u-vectors, so it needs no cache).  Entries are
keyed by

* the *layout* the packed words depend on -- operand side, element
  width, signedness, ``kua``/``kub``, group size and word width; the
  blocking parameters do **not** enter the key because panels are cut
  from the packed matrix afterwards -- and
* a blake2b *content fingerprint* of the dense matrix (shape, dtype,
  bytes).  Content hashing, not object identity: the runtime quantizes
  weights into a fresh array each inference, byte-identical every time,
  and identity keys would miss all of them.

Invalidation is therefore automatic -- mutate or re-quantize a matrix
to different values and its fingerprint changes -- at the price of one
hash per call, which is orders of magnitude cheaper than re-packing.
Capacity is bounded by an LRU policy.  Cached :class:`PackedMatrix`
objects are deeply immutable (tuples of frozen ``KVector``), and fault
hooks corrupt *copies* (``FaultInjector.on_pack`` returns new objects),
so sharing one entry across calls and cores is safe.

Eviction prefers activations: an ``A`` operand is a fresh activation
matrix on nearly every call, a ``B`` operand a static weight panel that
every call reuses.  Over capacity, the least recently used ``A`` entry
goes first, and a ``B`` entry only when no ``A`` entry is left, so a
graph whose weight panels fit keeps all of them warm however many
activations pass through.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .config import MixGemmConfig
from .errors import ReproError
from .locks import make_rlock
from .packing import PackedMatrix, pack_matrix_a, pack_matrix_b

#: Default entry bound: a deployment graph's worth of weight matrices
#: plus headroom for the activations in flight.
DEFAULT_CAPACITY = 64


class PackCacheError(ReproError, ValueError):
    """Raised on misuse (unknown operand side, bad capacity)."""


@dataclass
class PackCacheStats:
    """Hit/miss accounting; ``misses`` equals the packs performed."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def packs(self) -> int:
        return self.misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PackingCache:
    """LRU cache of :class:`PackedMatrix` keyed by layout + content."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise PackCacheError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        # One cache is shared across ParallelMixGemm cores and serving
        # workers; the OrderedDict reorder-on-hit is not atomic under
        # free-threaded access, so every access takes the lock --
        # enforced by `repro check --concurrency` via the annotation.
        self._lock = make_rlock("PackingCache._lock")
        self._entries: OrderedDict[
            tuple[object, ...], PackedMatrix
        ] = OrderedDict()               # repro: guarded-by(_lock)
        self.stats = PackCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def capacity(self) -> int:
        return self._capacity

    @staticmethod
    def fingerprint(matrix: np.ndarray) -> str:
        """Content hash of a dense operand (shape + dtype + bytes)."""
        arr = np.ascontiguousarray(matrix)
        digest = hashlib.blake2b(digest_size=16)
        digest.update(repr((arr.shape, arr.dtype.str)).encode())
        digest.update(arr.tobytes())
        return digest.hexdigest()

    @staticmethod
    def layout_key(operand: str, config: MixGemmConfig) -> tuple[object, ...]:
        """Every config field the packed words depend on, and nothing else."""
        lay = config.layout
        if operand == "A":
            return ("A", config.bw_a, config.signed_a, lay.kua,
                    lay.group_elements, config.word_bits)
        if operand == "B":
            return ("B", config.bw_b, config.signed_b, lay.kub,
                    lay.group_elements, config.word_bits)
        raise PackCacheError(f"operand must be 'A' or 'B', got {operand!r}")

    def get_or_pack(self, operand: str, matrix: np.ndarray,
                    config: MixGemmConfig) -> PackedMatrix:
        """Return the packed form of ``matrix``, packing at most once."""
        key = self.layout_key(operand, config) + (self.fingerprint(matrix),)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return cached
        packer = pack_matrix_a if operand == "A" else pack_matrix_b
        packed = packer(matrix, config)
        with self._lock:
            raced = self._entries.get(key)
            if raced is not None:
                # Another thread packed the same content concurrently;
                # keep its (identical, immutable) entry.
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return raced
            self.stats.misses += 1
            self._entries[key] = packed
            if len(self._entries) > self._capacity:
                victim = next((k for k in self._entries if k[0] == "A"),
                              next(iter(self._entries)))
                del self._entries[victim]
                self.stats.evictions += 1
        return packed

    def prewarm(self, operand: str, matrix: np.ndarray,
                config: MixGemmConfig) -> bool:
        """Pack ``matrix`` into the cache ahead of time.

        Compiled plans call this once per static weight so the first
        served request never pays a pack.  Returns ``True`` when this
        call performed the pack, ``False`` on an already-warm entry.
        """
        key = self.layout_key(operand, config) + (self.fingerprint(matrix),)
        with self._lock:
            warm = key in self._entries
        self.get_or_pack(operand, matrix, config)
        return not warm

    def clear(self) -> None:
        """Drop every entry; statistics are preserved."""
        with self._lock:
            self._entries.clear()
