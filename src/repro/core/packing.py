"""u-vector packing: narrow matrices compressed into 64-bit words.

The Mix-GEMM software library keeps A and B compressed over their common
``k`` dimension "in chunks ranging from 8 to 32 elements, for 8- and 2-bit
data sizes" (Section III-A).  Each chunk is one *u-vector*, abstracted by the
BLIS machinery as a single 64-bit element, which is what lets the library
reuse DGEMM's cache-friendly data movement unchanged.

Two layers of padding exist and are both modelled:

* word padding -- the last u-vector of a k-run rarely fills completely;
* group padding -- in mixed precision, each innermost iteration consumes
  ``kua`` A words against ``kub`` B words, and the surplus slots on the
  wider stream are zeroed (Section III-C measures this at 2.4% on average).

Elements are stored two's-complement in ``bw``-bit fields, element 0 at the
least-significant end of the word.  Words are Python integers (they are
bit-exact and the functional simulator unpacks them anyway).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .binseg import BinSegError, ceil_div, value_range
from .config import MixGemmConfig


def pack_word(values: Sequence[int], bw: int, word_bits: int = 64) -> int:
    """Pack narrow elements into one u-vector word, element 0 at the LSB.

    Values are stored two's complement in ``bw``-bit fields; unused high
    bits stay zero (they are word padding).
    """
    capacity = word_bits // bw
    if len(values) > capacity:
        raise BinSegError(
            f"{len(values)} elements exceed u-vector capacity {capacity} "
            f"at {bw} bits"
        )
    mask = (1 << bw) - 1
    word = 0
    for i, v in enumerate(values):
        word |= (int(v) & mask) << (i * bw)
    return word


def unpack_fields(
    words: Sequence[int], shifts: Sequence[Sequence[int]], mask: int,
    sign: int,
) -> list[int]:
    """Read the fields at ``shifts[w]`` of each ``words[w]``, in order.

    ``mask`` is ``2**bw - 1``; ``sign`` is the field's sign bit
    ``2**(bw - 1)`` for two's-complement data and ``0`` for unsigned, so
    ``(field ^ sign) - sign`` sign- or zero-extends without a branch (the
    DCU's conversion step).  Every result fits ``bw`` bits by
    construction.
    """
    return [(((word >> s) & mask) ^ sign) - sign
            for word, word_shifts in zip(words, shifts)
            for s in word_shifts]


def unpack_word(
    word: int, bw: int, count: int, *, signed: bool, word_bits: int = 64
) -> list[int]:
    """Extract ``count`` elements from a u-vector word (inverse of pack)."""
    capacity = word_bits // bw
    if count > capacity:
        raise BinSegError(
            f"cannot unpack {count} elements from a {word_bits}-bit word "
            f"holding at most {capacity} at {bw} bits"
        )
    sign = 1 << (bw - 1) if signed else 0
    return unpack_fields((int(word),), (range(0, count * bw, bw),),
                         (1 << bw) - 1, sign)


def _check_matrix(matrix: np.ndarray, bw: int, signed: bool,
                  name: str) -> np.ndarray:
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise BinSegError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise BinSegError(f"{name} must be an integer array, got {arr.dtype}")
    lo, hi = value_range(bw, signed)
    if arr.size and (arr.min() < lo or arr.max() > hi):
        raise BinSegError(
            f"{name} holds values outside the {bw}-bit "
            f"{'signed' if signed else 'unsigned'} range [{lo}, {hi}]"
        )
    return arr.astype(np.int64)


@dataclass(frozen=True)
class KVector:
    """One row/column of a matrix packed along k with group structure.

    ``words`` is flat: group g occupies ``words[g*ku : (g+1)*ku]`` and
    carries ``elements_in_group(g)`` logical elements, distributed densely
    from the group's first word (so the zero padding sits at the tail of the
    group, matching the DSU walk in Figure 4).
    """

    words: tuple[int, ...]
    k: int
    bw: int
    ku: int
    group_elements: int
    signed: bool
    word_bits: int = 64

    @property
    def n_groups(self) -> int:
        return ceil_div(self.k, self.group_elements)

    @property
    def elems_per_word(self) -> int:
        return self.word_bits // self.bw

    def elements_in_group(self, g: int) -> int:
        if not 0 <= g < self.n_groups:
            raise IndexError(f"group {g} out of range")
        return min(self.group_elements, self.k - g * self.group_elements)

    def group_words(self, g: int) -> tuple[int, ...]:
        return self.words[g * self.ku:(g + 1) * self.ku]

    def unpack(self) -> list[int]:
        """Recover the logical k elements (drops all padding)."""
        out: list[int] = []
        epw = self.elems_per_word
        for g in range(self.n_groups):
            remaining = self.elements_in_group(g)
            for word in self.group_words(g):
                take = min(remaining, epw)
                out.extend(
                    unpack_word(word, self.bw, take, signed=self.signed,
                                word_bits=self.word_bits)
                )
                remaining -= take
                if remaining == 0:
                    break
        return out


def pack_kvector(
    values: Sequence[int],
    bw: int,
    ku: int,
    group_elements: int,
    *,
    signed: bool,
    word_bits: int = 64,
) -> KVector:
    """Pack one k-run of narrow elements into group-aligned u-vectors."""
    values = [int(v) for v in values]
    k = len(values)
    if k == 0:
        raise BinSegError("cannot pack an empty k vector")
    epw = word_bits // bw
    n_groups = ceil_div(k, group_elements)
    words: list[int] = []
    for g in range(n_groups):
        chunk = values[g * group_elements:(g + 1) * group_elements]
        for w in range(ku):
            sub = chunk[w * epw:(w + 1) * epw]
            words.append(pack_word(sub, bw, word_bits))
    return KVector(
        words=tuple(words), k=k, bw=bw, ku=ku,
        group_elements=group_elements, signed=signed, word_bits=word_bits,
    )


@dataclass(frozen=True)
class PackedMatrix:
    """A full matrix compressed along k, one :class:`KVector` per k-run.

    For the A operand (m x k) each row is a k-run; for the B operand
    (k x n) each *column* is a k-run.  ``operand`` records which.
    """

    kvectors: tuple[KVector, ...]
    operand: str  # "A" or "B"
    rows: int
    cols: int

    @property
    def k(self) -> int:
        return self.kvectors[0].k

    @property
    def n_runs(self) -> int:
        return len(self.kvectors)

    @property
    def words_per_run(self) -> int:
        return len(self.kvectors[0].words)

    @property
    def memory_bytes(self) -> int:
        """Footprint of the compressed representation, padding included."""
        word_bytes = self.kvectors[0].word_bits // 8
        return self.n_runs * self.words_per_run * word_bytes

    @property
    def logical_bits(self) -> int:
        """Bits strictly needed for the payload (no padding)."""
        return self.n_runs * self.k * self.kvectors[0].bw

    @property
    def padding_overhead(self) -> float:
        """Fraction of stored bits that are padding (Section III-C)."""
        stored = self.memory_bytes * 8
        return 1.0 - self.logical_bits / stored

    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense int64 matrix (for verification)."""
        runs = np.array([kv.unpack() for kv in self.kvectors], dtype=np.int64)
        if self.operand == "A":
            return runs
        return runs.T


def pack_matrix_a(
    matrix: np.ndarray, config: MixGemmConfig
) -> PackedMatrix:
    """Compress the activation matrix A (m x k) row-wise along k."""
    arr = _check_matrix(matrix, config.bw_a, config.signed_a, "A")
    lay = config.layout
    kvecs = tuple(
        pack_kvector(
            row, config.bw_a, lay.kua, lay.group_elements,
            signed=config.signed_a, word_bits=config.word_bits,
        )
        for row in arr
    )
    return PackedMatrix(kvectors=kvecs, operand="A",
                        rows=arr.shape[0], cols=arr.shape[1])


def pack_matrix_b(
    matrix: np.ndarray, config: MixGemmConfig
) -> PackedMatrix:
    """Compress the weight matrix B (k x n) column-wise along k."""
    arr = _check_matrix(matrix, config.bw_b, config.signed_b, "B")
    lay = config.layout
    kvecs = tuple(
        pack_kvector(
            col, config.bw_b, lay.kub, lay.group_elements,
            signed=config.signed_b, word_bits=config.word_bits,
        )
        for col in arr.T
    )
    return PackedMatrix(kvectors=kvecs, operand="B",
                        rows=arr.shape[0], cols=arr.shape[1])


# ---------------------------------------------------------------------------
# BLIS panels and u-panels (Figure 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MicroPanel:
    """One register-resident u-panel: ``mr`` (or ``nr``) k-runs, one k block.

    ``runs[i]`` is the group-aligned word list of run ``i`` restricted to
    the panel's k range.  Runs past the matrix edge are zero (BLIS edge
    handling).
    """

    runs: tuple[KVector, ...]

    @property
    def n_groups(self) -> int:
        return self.runs[0].n_groups


def _slice_kvector(kv: KVector, k_lo: int, k_hi: int) -> KVector:
    """Restrict a packed k-run to logical elements [k_lo, k_hi).

    ``kc`` blocking is chosen as a multiple of the group size, so slices
    land on group boundaries and no repacking is needed.
    """
    ge = kv.group_elements
    if k_lo % ge or (k_hi % ge and k_hi != kv.k):
        raise BinSegError(
            f"k slice [{k_lo}, {k_hi}) not aligned to group size {ge}"
        )
    g_lo = k_lo // ge
    g_hi = ceil_div(k_hi, ge)
    words = kv.words[g_lo * kv.ku:g_hi * kv.ku]
    return KVector(
        words=words, k=k_hi - k_lo, bw=kv.bw, ku=kv.ku,
        group_elements=ge, signed=kv.signed, word_bits=kv.word_bits,
    )


def _zero_kvector(template: KVector) -> KVector:
    return KVector(
        words=tuple(0 for _ in template.words), k=template.k,
        bw=template.bw, ku=template.ku,
        group_elements=template.group_elements, signed=template.signed,
        word_bits=template.word_bits,
    )


def create_micro_panel(
    packed: PackedMatrix, run_lo: int, r: int, k_lo: int, k_hi: int
) -> MicroPanel:
    """Cut an ``r``-run u-panel out of a packed matrix (CreateuPanel)."""
    runs: list[KVector] = []
    template: KVector | None = None
    for i in range(run_lo, run_lo + r):
        if i < packed.n_runs:
            kv = _slice_kvector(packed.kvectors[i], k_lo, k_hi)
            runs.append(kv)
            template = kv
        else:
            if template is None:
                template = _slice_kvector(packed.kvectors[0], k_lo, k_hi)
            runs.append(_zero_kvector(template))
    return MicroPanel(runs=tuple(runs))
