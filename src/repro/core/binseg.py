"""Binary segmentation arithmetic (paper Section II-B, Equations 3-7).

Binary segmentation packs several narrow-integer elements into a single wide
machine word (an *input-cluster*) so that one wide multiplication computes the
inner product of the packed elements.  The Mix-GEMM micro-engine builds its
whole datapath on this technique; this module is the exact functional model.

Terminology follows the paper:

* ``bw_a`` / ``bw_b``     -- bitwidths of the two narrow operand vectors.
* ``cw``                  -- clustering width: bits reserved per packed element
                             (Equation 3).
* ``input_cluster_size``  -- elements packed per wide word (Equation 4).
* ``slice``               -- bit range of the wide product that holds the
                             inner product of one cluster pair (Equations 5-7).

Worked example reproduced in the tests (paper Figure 1): with a 16-bit
multiplier and 3-bit x 2-bit operands, ``cw = 8`` and two elements fit per
cluster, so ``[4, 7] . [3, 2]`` is computed as ``1031 * 515`` whose middle
base-256 digit is ``26``.

Signedness: packed integers are formed over the integers (a negative element
contributes a negative term), which makes the product's base-``2**cw`` digit
at the slice position exactly the inner product.  Recovering that digit from
the two's-complement product needs a one-bit borrow correction whenever the
digits below the slice are negative; the bit just below the slice tells us
exactly when (see :func:`extract_inner_product`).  Equation 3's headroom
guarantees the correction is always representable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ReproError

#: Multiplier width of the scalar RV64 core the paper integrates with.
DEFAULT_MUL_WIDTH = 64

#: Data sizes supported by Mix-GEMM (paper Section I: "all data size
#: combinations from 8- to 2-bit").
SUPPORTED_BITWIDTHS = (2, 3, 4, 5, 6, 7, 8)


class BinSegError(ReproError, ValueError):
    """Raised for configurations binary segmentation cannot support."""


def _check_bitwidth(bw: int, name: str) -> None:
    if bw not in SUPPORTED_BITWIDTHS:
        raise BinSegError(
            f"{name}={bw} is outside the supported range "
            f"{SUPPORTED_BITWIDTHS[0]}-{SUPPORTED_BITWIDTHS[-1]} bits"
        )


def clustering_width(bw_a: int, bw_b: int, cluster_size: int) -> int:
    """Minimum clustering width for ``cluster_size`` elements (Equation 3).

    ``cw >= 1 + bw_a + bw_b + ceil(log2(cluster_size + 1))``.
    """
    if cluster_size < 1:
        raise BinSegError(f"cluster_size must be >= 1, got {cluster_size}")
    return 1 + bw_a + bw_b + math.ceil(math.log2(cluster_size + 1))


@functools.lru_cache(maxsize=None)
def input_cluster_size(
    bw_a: int, bw_b: int, mul_width: int = DEFAULT_MUL_WIDTH
) -> int:
    """Largest cluster size a ``mul_width``-bit multiplier supports (Eq. 4).

    Equations 3 and 4 are mutually dependent (the width per element grows
    with the cluster size), so we take the largest ``n`` with
    ``n * clustering_width(bw_a, bw_b, n) <= mul_width``.  Memoised: the
    answer is a pure function of three ints (a rejected bitwidth raises
    on every call, since exceptions are never cached).
    """
    _check_bitwidth(bw_a, "bw_a")
    _check_bitwidth(bw_b, "bw_b")
    best = 0
    n = 1
    while n * clustering_width(bw_a, bw_b, n) <= mul_width:
        best = n
        n += 1
    if best == 0:
        raise BinSegError(
            f"multiplier of {mul_width} bits cannot hold even one "
            f"{bw_a}x{bw_b}-bit product cluster"
        )
    return best


def slice_bounds(cluster_size: int, cw: int) -> tuple[int, int]:
    """Bit range of the product holding the inner product (Equations 6-7).

    Returns ``(slice_msb, slice_lsb)``, both inclusive.
    """
    slice_lsb = (cluster_size - 1) * cw
    slice_msb = slice_lsb + cw - 1
    return slice_msb, slice_lsb


def value_range(bw: int, signed: bool) -> tuple[int, int]:
    """Representable ``[min, max]`` for a ``bw``-bit element (Equation 2)."""
    if signed:
        return -(1 << (bw - 1)), (1 << (bw - 1)) - 1
    return 0, (1 << bw) - 1


def ceil_div(n: int, d: int) -> int:
    """Exact ``ceil(n / d)`` in pure integer arithmetic.

    ``math.ceil(n / d)`` rounds through a float and silently loses
    precision once ``n`` exceeds 2**53; kernel code must use this
    instead (enforced by lint rule REP003).
    """
    if d <= 0:
        raise BinSegError(f"ceil_div divisor must be positive, got {d}")
    return -(-n // d)


def _checked_elements(
    values: Sequence[int], bw: int, signed: bool, name: str
) -> list[int]:
    """``values`` as Python ints, each verified to fit ``bw`` bits."""
    lo, hi = value_range(bw, signed)
    out = [int(v) for v in values]
    for v in out:
        if not lo <= v <= hi:
            raise BinSegError(
                f"{name} element {v} does not fit {bw}-bit "
                f"{'signed' if signed else 'unsigned'} range [{lo}, {hi}]"
            )
    return out


def _pack_fields(values: Sequence[int], cw: int) -> int:
    """Horner-pack Python ints into ``cw``-bit digits, first element on top."""
    packed = 0
    for v in values:
        packed = (packed << cw) + v
    return packed


def pack_cluster(values: Sequence[int], cw: int, *, reverse: bool) -> int:
    """Pack elements into one input-cluster integer.

    Element 0 lands in the most-significant ``cw``-bit digit; passing
    ``reverse=True`` applies the order reversal the paper prescribes for the
    ``b`` operand (Figure 1, green stage), which turns the product's middle
    digit into the inner product.  The result is an integer over Z: negative
    elements contribute negative terms, so the value itself may be negative.
    """
    ints = [int(v) for v in values]
    return _pack_fields(ints[::-1] if reverse else ints, cw)


@dataclass(frozen=True)
class ClusterDatapath:
    """Equations 3-7 resolved for one cluster length ``n``.

    The constants ``bs.set`` leaves in the Control Unit for ``n``-element
    clusters: the DCU's ``cw``-bit field width, the DFU's slice LSB
    ``(n - 1) * cw`` (Eq. 6-7) and the mask/sign constants that read the slice as a signed
    ``cw``-bit value.  This is the one implementation of pack, multiply
    and slice: :func:`cluster_inner_product` validates its operands and
    then runs it, and the u-engine runs it directly on unpacked u-vector
    fields, whose ranges hold by construction.  Operands must be Python
    ints (NumPy scalars would overflow in the wide multiply).
    Build instances with :func:`cluster_datapath`.
    """

    cw: int
    slice_lsb: int
    cw_mask: int
    cw_sign: int

    def pack_a(self, values: Sequence[int]) -> int:
        """The ``a`` input-cluster: element 0 in the top field."""
        return _pack_fields(values, self.cw)

    def pack_b(self, values: Sequence[int]) -> int:
        """The ``b`` input-cluster: fields in reversed order (Figure 1)."""
        return _pack_fields(values[::-1], self.cw)

    def extract(self, product: int) -> int:
        """Pull the cluster inner product out of a wide product (Eq. 5).

        The digit of ``product`` in base ``2**cw`` that starts at
        ``slice_lsb`` is the inner product.  Because lower digits may be negative, the
        floor-division residue below the slice can borrow one unit from
        it; the borrow happened exactly when the bit just below the slice
        is set (the residue then exceeds half the slice weight, which
        Equation 3's headroom makes otherwise impossible).  This mirrors
        the single-bit correction the hardware Data Filtering Unit
        applies.
        """
        lsb = self.slice_lsb
        sign = self.cw_sign
        value = (((product >> lsb) & self.cw_mask) ^ sign) - sign
        if lsb:
            value += (product >> (lsb - 1)) & 1
        return value

    def inner_product(self, a: Sequence[int], b: Sequence[int]) -> int:
        """Pack both operands, do the one wide multiply, slice."""
        return self.extract(self.pack_a(a) * self.pack_b(b))


@functools.lru_cache(maxsize=None)
def cluster_datapath(n: int, cw: int) -> ClusterDatapath:
    """The memoised :class:`ClusterDatapath` for ``n`` fields of ``cw`` bits."""
    if n < 1:
        raise BinSegError(f"cluster length must be >= 1, got {n}")
    _, slice_lsb = slice_bounds(n, cw)
    return ClusterDatapath(cw=cw, slice_lsb=slice_lsb,
                           cw_mask=(1 << cw) - 1, cw_sign=1 << (cw - 1))


def extract_inner_product(product: int, cluster_size: int, cw: int) -> int:
    """Pull the cluster inner product out of a wide multiplication (Eq. 5).

    See :meth:`ClusterDatapath.extract` for the borrow-bit rule.
    """
    return cluster_datapath(cluster_size, cw).extract(int(product))


def cluster_inner_product(
    a_values: Sequence[int],
    b_values: Sequence[int],
    bw_a: int,
    bw_b: int,
    *,
    signed_a: bool = True,
    signed_b: bool = True,
    mul_width: int = DEFAULT_MUL_WIDTH,
) -> int:
    """Inner product of one sub-u-vector pair via a single wide multiply.

    Models the pink + blue + orange pipeline stages of Figure 1: pack both
    operands (with ``b`` reversed), multiply, then slice-extract.
    """
    if len(a_values) != len(b_values):
        raise BinSegError(
            f"cluster operands differ in length: "
            f"{len(a_values)} vs {len(b_values)}"
        )
    n = len(a_values)
    max_n = input_cluster_size(bw_a, bw_b, mul_width)
    if n > max_n:
        raise BinSegError(
            f"cluster of {n} elements exceeds input_cluster_size={max_n} "
            f"for {bw_a}x{bw_b}-bit data on a {mul_width}-bit multiplier"
        )
    a = _checked_elements(a_values, bw_a, signed_a, "a")
    b = _checked_elements(b_values, bw_b, signed_b, "b")
    cw = clustering_width(bw_a, bw_b, max_n)
    return cluster_datapath(n, cw).inner_product(a, b)


def segmented_inner_product(
    a: Sequence[int],
    b: Sequence[int],
    bw_a: int,
    bw_b: int,
    *,
    signed_a: bool = True,
    signed_b: bool = True,
    mul_width: int = DEFAULT_MUL_WIDTH,
) -> int:
    """Full-vector inner product computed cluster by cluster (Figure 1).

    Splits ``a`` and ``b`` into sub-u-vectors of at most
    ``input_cluster_size`` elements, evaluates each pair with one wide
    multiplication, and accumulates the partial inner products (grey stage).
    """
    if len(a) != len(b):
        raise BinSegError(f"length mismatch: {len(a)} vs {len(b)}")
    size = input_cluster_size(bw_a, bw_b, mul_width)
    total = 0
    for start in range(0, len(a), size):
        total += cluster_inner_product(
            a[start:start + size],
            b[start:start + size],
            bw_a,
            bw_b,
            signed_a=signed_a,
            signed_b=signed_b,
            mul_width=mul_width,
        )
    return total


def multiplications_required(
    n_elements: int, bw_a: int, bw_b: int, mul_width: int = DEFAULT_MUL_WIDTH
) -> int:
    """Wide multiplications needed for an ``n_elements`` inner product."""
    size = input_cluster_size(bw_a, bw_b, mul_width)
    return ceil_div(n_elements, size)


def arithmetic_reduction(
    n_elements: int, bw_a: int, bw_b: int, mul_width: int = DEFAULT_MUL_WIDTH
) -> float:
    """Arithmetic complexity reduction over one-MAC-per-element baselines.

    The paper's Figure 1 example (4 elements, 3x2 bits, 16-bit multiplier)
    needs 2 multiplications and 1 addition instead of 4 multiplications and
    3 additions, a 7/3 = 2.33x reduction.  We count one multiply plus one add
    per scalar MAC against one multiply per cluster plus one add per partial
    accumulation.
    """
    muls = multiplications_required(n_elements, bw_a, bw_b, mul_width)
    baseline_ops = 2 * n_elements - 1
    segmented_ops = muls + (muls - 1)
    return baseline_ops / segmented_ops


def worst_case_inner_product(
    k: int,
    bw_a: int,
    bw_b: int,
    *,
    signed_a: bool = True,
    signed_b: bool = True,
) -> int:
    """Largest |value| a ``k``-deep inner product can reach (Eq. 2 + 5).

    Every element pair contributes at most ``max|a| * max|b|``; for signed
    operands ``max|a| = 2**(bw_a - 1)``, so the bound is the
    ``k * 2**(bw_a + bw_b - 2)`` figure the overflow contract quotes.
    This is the exact algebraic worst case, not an estimate: it is reached
    by all-minimum operand vectors.
    """
    if k < 0:
        raise BinSegError(f"k must be non-negative, got {k}")
    lo_a, hi_a = value_range(bw_a, signed_a)
    lo_b, hi_b = value_range(bw_b, signed_b)
    return k * max(abs(lo_a), abs(hi_a)) * max(abs(lo_b), abs(hi_b))


def accumulator_bits_required(
    k: int,
    bw_a: int,
    bw_b: int,
    *,
    signed_a: bool = True,
    signed_b: bool = True,
) -> int:
    """Two's-complement accumulator width that provably cannot wrap.

    The smallest signed width holding every value a ``k``-deep
    ``bw_a`` x ``bw_b`` inner product can produce.  Static contract
    checking compares this against the configured AccMem width; the
    dynamic engine wraps exactly when this exceeds ``accmem_bits``
    *and* the data actually excites the bound.
    """
    worst = worst_case_inner_product(
        k, bw_a, bw_b, signed_a=signed_a, signed_b=signed_b)
    return worst.bit_length() + 1  # sign bit


@dataclass(frozen=True)
class BinSegSpec:
    """Resolved binary-segmentation parameters for one (bw_a, bw_b) pair.

    This is what ``bs.set`` loads into the micro-engine Control Unit: the
    element widths and signedness plus every derived constant the datapath
    stages need (Section III-B).
    """

    bw_a: int
    bw_b: int
    signed_a: bool = True
    signed_b: bool = True
    mul_width: int = DEFAULT_MUL_WIDTH

    def __post_init__(self) -> None:
        _check_bitwidth(self.bw_a, "bw_a")
        _check_bitwidth(self.bw_b, "bw_b")
        if self.mul_width < 8:
            raise BinSegError(f"mul_width too small: {self.mul_width}")

    @property
    def input_cluster_size(self) -> int:
        """Elements processed per multiplier pass (the MAC/cycle rate)."""
        return input_cluster_size(self.bw_a, self.bw_b, self.mul_width)

    @property
    def cw(self) -> int:
        return clustering_width(self.bw_a, self.bw_b, self.input_cluster_size)

    @property
    def slice_msb(self) -> int:
        return slice_bounds(self.input_cluster_size, self.cw)[0]

    @property
    def slice_lsb(self) -> int:
        return slice_bounds(self.input_cluster_size, self.cw)[1]

    @property
    def macs_per_cycle(self) -> int:
        """Peak MAC throughput; the paper's 3-7 MAC/cycle range at 64 bits."""
        return self.input_cluster_size

    def inner_product(self, a: Sequence[int], b: Sequence[int]) -> int:
        """Convenience wrapper over :func:`segmented_inner_product`."""
        return segmented_inner_product(
            a,
            b,
            self.bw_a,
            self.bw_b,
            signed_a=self.signed_a,
            signed_b=self.signed_b,
            mul_width=self.mul_width,
        )

    def describe(self) -> str:
        """One-line summary in the paper's aX-wY notation."""
        return (
            f"a{self.bw_a}-w{self.bw_b}: cw={self.cw}, "
            f"cluster={self.input_cluster_size} elements, "
            f"{self.macs_per_cycle} MAC/cycle, "
            f"slice=[{self.slice_msb}:{self.slice_lsb}]"
        )
