"""Mix-GEMM configuration: data sizes, u-vector layout and blocking.

Gathers every tunable the paper exposes (Sections III-A, III-C, Table I):

* the activation/weight bitwidths (``a8-w8`` ... ``a2-w2`` notation),
* the u-vector layout -- how many narrow elements one 64-bit word packs,
* the ``kua`` / ``kub`` balancing factors for mixed-precision streams,
* the BLIS blocking parameters ``mc, nc, kc, mr, nr``,
* micro-engine sizing: AccMem slots and Source Buffer depth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

from .binseg import (
    SUPPORTED_BITWIDTHS,
    BinSegError,
    BinSegSpec,
    DEFAULT_MUL_WIDTH,
)

#: 64-bit architectural word the library compresses u-vectors into.
WORD_BITS = 64

#: Upper bound for kua/kub found by the paper's DSE (Section III-C): with a
#: 32-register RF and mr = nr = 4, holding kua*mr + kub*nr u-vectors caps
#: both factors at 4.
MAX_KU = 4

#: AccMem entry width in bits.  The paper's implementation registers
#: 64-bit accumulator slots (Section III-B); narrower deployments trade
#: area for the overflow headroom the static contract checker verifies.
DEFAULT_ACCMEM_BITS = 64

#: Width of the scalar-core integer container (numpy ``int64``) that
#: per-block partial sums are folded into *outside* AccMem.  At or above
#: this width, two's-complement wrapping is the identity on the int64
#: representation, so runtime wrap guards compare against it instead of
#: hard-coding the literal (enforced by lint rule REP010).
ACCMEM_CONTAINER_BITS = 64

#: Execution backends a :class:`MixGemmConfig` may request (see
#: :mod:`repro.core.backend` for the dispatch rules).
EXECUTION_BACKENDS = ("event", "fast", "auto")


def elements_per_uvector(bw: int, word_bits: int = WORD_BITS) -> int:
    """Narrow elements one u-vector packs: 8 at 8-bit up to 32 at 2-bit."""
    if bw not in SUPPORTED_BITWIDTHS:
        raise BinSegError(f"unsupported element width: {bw}")
    return word_bits // bw


def select_ku(
    bw_a: int,
    bw_b: int,
    max_ku: int = MAX_KU,
    word_bits: int = WORD_BITS,
) -> tuple[int, int]:
    """Choose ``(kua, kub)`` balancing the two u-vector streams (Fig. 4).

    Each innermost u-kernel iteration issues ``kua`` A u-vectors and ``kub``
    B u-vectors; the logical elements consumed from both streams must match,
    and any slot surplus on the wider stream is zero padding.  We pick the
    pair that minimises the padded-slot fraction, breaking ties toward
    larger groups (better RF utilisation, up to the RF-imposed ``max_ku``).

    Reproduces the paper's choices: a8-w8 -> (4, 4); a8-w6 -> (4, 3);
    a6-w4 -> (3, 2).
    """
    ea = elements_per_uvector(bw_a, word_bits)
    eb = elements_per_uvector(bw_b, word_bits)
    best_key: tuple[float, int, int] | None = None
    chosen = (1, 1)
    for kua, kub in itertools.product(range(1, max_ku + 1), repeat=2):
        slots = kua * ea + kub * eb
        group = min(kua * ea, kub * eb)
        pad_fraction = 1.0 - (2 * group) / slots
        # Least padding first, then largest group, then least RF pressure.
        key = (pad_fraction, -group, kua + kub)
        if best_key is None or key < best_key:
            best_key = key
            chosen = (kua, kub)
    return chosen


@dataclass(frozen=True)
class UVectorLayout:
    """How one (bw_a, bw_b) pair maps onto 64-bit u-vector streams."""

    bw_a: int
    bw_b: int
    kua: int
    kub: int
    word_bits: int = WORD_BITS

    @property
    def elems_a(self) -> int:
        return elements_per_uvector(self.bw_a, self.word_bits)

    @property
    def elems_b(self) -> int:
        return elements_per_uvector(self.bw_b, self.word_bits)

    @property
    def slots_a(self) -> int:
        """A-stream element slots per innermost iteration."""
        return self.kua * self.elems_a

    @property
    def slots_b(self) -> int:
        return self.kub * self.elems_b

    @property
    def group_elements(self) -> int:
        """Logical k elements consumed per innermost u-kernel iteration."""
        return min(self.slots_a, self.slots_b)

    @property
    def padded_slots(self) -> int:
        """Zero-padded slots per group on the surplus stream."""
        return max(self.slots_a, self.slots_b) - self.group_elements

    @property
    def padding_fraction(self) -> float:
        """Padded fraction of all issued slots (paper: 2.4% on average)."""
        total = self.slots_a + self.slots_b
        return self.padded_slots / total

    def groups_for_k(self, k: int) -> int:
        """Innermost iterations needed to cover a k-long inner product."""
        return math.ceil(k / self.group_elements)

    def consistency_problems(self) -> list[str]:
        """Static layout-contract violations, empty when well-formed.

        Everything the u-kernel assumes about this layout without checking
        at runtime: supported element widths, kua/kub inside the
        RF-imposed band, and both streams packing at least one element
        per word so a group makes progress.
        """
        problems: list[str] = []
        for name, bw in (("bw_a", self.bw_a), ("bw_b", self.bw_b)):
            if bw not in SUPPORTED_BITWIDTHS:
                problems.append(
                    f"{name}={bw} outside the supported "
                    f"{SUPPORTED_BITWIDTHS[0]}-{SUPPORTED_BITWIDTHS[-1]} "
                    f"bit band"
                )
        for name, ku in (("kua", self.kua), ("kub", self.kub)):
            if not 1 <= ku <= MAX_KU:
                problems.append(
                    f"{name}={ku} outside the RF-imposed range 1-{MAX_KU}"
                )
        if not problems and self.word_bits < max(self.bw_a, self.bw_b):
            problems.append(
                f"word_bits={self.word_bits} cannot hold one "
                f"{max(self.bw_a, self.bw_b)}-bit element"
            )
        return problems


# ---------------------------------------------------------------------------
# Blocking parameters (BLIS heritage, Table I)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockingParams:
    """BLIS cache/register blocking (Table I: mc = nc = kc = 256).

    ``mc``/``nc`` count rows/columns; ``kc`` counts **64-bit u-vectors**
    along k (the unit the BLIS machinery sees, since the library abstracts
    each compressed chunk as one 64-bit element).  The *logical* k span of
    one k-block is therefore ``kc * elements_per_uvector(bw_a)`` -- it
    grows as the data narrows, which is exactly the compression benefit:
    the same L1 budget holds 8x more 8-bit and 32x more 2-bit elements
    than the DGEMM baseline.  ``mr``/``nr`` size the register u-panel.
    """

    mc: int = 256
    nc: int = 256
    kc: int = 256
    mr: int = 4
    nr: int = 4

    def __post_init__(self) -> None:
        for name in ("mc", "nc", "kc", "mr", "nr"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.mr > self.mc:
            raise ValueError("mr cannot exceed mc")
        if self.nr > self.nc:
            raise ValueError("nr cannot exceed nc")

    @property
    def accmem_slots(self) -> int:
        """AccMem entries needed for one C u-panel (Table I: 16)."""
        return self.mr * self.nr


def blocking_problems(mc: int, nc: int, kc: int, mr: int,
                      nr: int) -> list[str]:
    """Why ``BlockingParams(mc, nc, kc, mr, nr)`` would refuse to build.

    The same constraints :meth:`BlockingParams.__post_init__` raises on,
    exposed as data so a candidate-space generator (the
    COST-BLOCKING-INEFFICIENT check in :mod:`repro.analysis.cost`) can
    filter and *report* invalid points instead of driving the search by
    exception handling.  Empty list = buildable.
    """
    problems: list[str] = []
    for name, value in (("mc", mc), ("nc", nc), ("kc", kc),
                        ("mr", mr), ("nr", nr)):
        if value < 1:
            problems.append(f"{name}={value} must be positive")
    if not problems:
        if mr > mc:
            problems.append(f"mr={mr} exceeds mc={mc}: one register "
                            f"u-panel cannot outgrow its cache block")
        if nr > nc:
            problems.append(f"nr={nr} exceeds nc={nc}: one register "
                            f"u-panel cannot outgrow its cache block")
    return problems


#: Default per-axis blocking grids the cost checker scores.
#: ``mc``/``nc``/``kc`` span the paper's Table-I point (256) down to the
#: simulator default (16/16/64); ``mr``/``nr`` stay at the RF-imposed 4x4 register tile
#: (Section III-C: a 32-register RF caps the u-panel at 4x4).
BLOCKING_MC_VALUES = (16, 64, 256)
BLOCKING_NC_VALUES = (16, 64, 256)
BLOCKING_KC_VALUES = (16, 64, 256, 1024)
BLOCKING_MR_VALUES = (4,)
BLOCKING_NR_VALUES = (4,)


def blocking_candidates(
    *,
    mc_values: tuple[int, ...] = BLOCKING_MC_VALUES,
    nc_values: tuple[int, ...] = BLOCKING_NC_VALUES,
    kc_values: tuple[int, ...] = BLOCKING_KC_VALUES,
    mr_values: tuple[int, ...] = BLOCKING_MR_VALUES,
    nr_values: tuple[int, ...] = BLOCKING_NR_VALUES,
) -> list[BlockingParams]:
    """Every buildable :class:`BlockingParams` on the given grids.

    The cross product is filtered through :func:`blocking_problems`, so
    points like ``mr > mc`` are dropped rather than raised; the result
    is deterministic (grid order) and duplicate-free.
    """
    candidates: list[BlockingParams] = []
    seen: set[tuple[int, int, int, int, int]] = set()
    for mc, nc, kc, mr, nr in itertools.product(
            mc_values, nc_values, kc_values, mr_values, nr_values):
        point = (mc, nc, kc, mr, nr)
        if point in seen or blocking_problems(*point):
            continue
        seen.add(point)
        candidates.append(BlockingParams(mc=mc, nc=nc, kc=kc,
                                         mr=mr, nr=nr))
    return candidates


@dataclass(frozen=True)
class MixGemmConfig:
    """Complete configuration of the Mix-GEMM HW-SW stack.

    The notation ``aX-wY`` names the activation (A matrix) and weight
    (B matrix) bitwidths.  Everything else either derives from them via
    binary segmentation or is a DSE-chosen constant (Table I).
    """

    bw_a: int = 8
    bw_b: int = 8
    signed_a: bool = True
    signed_b: bool = True
    blocking: BlockingParams = field(default_factory=BlockingParams)
    source_buffer_depth: int = 16
    mul_width: int = DEFAULT_MUL_WIDTH
    word_bits: int = WORD_BITS
    accmem_bits: int = DEFAULT_ACCMEM_BITS
    kua: int | None = None
    kub: int | None = None
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.source_buffer_depth < 1:
            raise ValueError("source_buffer_depth must be positive")
        if self.backend not in EXECUTION_BACKENDS:
            raise ValueError(
                f"backend={self.backend!r} not one of {EXECUTION_BACKENDS}"
            )
        if not 8 <= self.accmem_bits <= 128:
            raise ValueError(
                f"accmem_bits={self.accmem_bits} outside the buildable "
                f"8-128 bit range"
            )
        if self.kua is None or self.kub is None:
            kua, kub = select_ku(self.bw_a, self.bw_b, word_bits=self.word_bits)
            object.__setattr__(self, "kua", self.kua or kua)
            object.__setattr__(self, "kub", self.kub or kub)

    @property
    def name(self) -> str:
        """Paper notation, e.g. ``a8-w8`` or ``a6-w4``."""
        return f"a{self.bw_a}-w{self.bw_b}"

    @property
    def binseg(self) -> BinSegSpec:
        return BinSegSpec(
            bw_a=self.bw_a,
            bw_b=self.bw_b,
            signed_a=self.signed_a,
            signed_b=self.signed_b,
            mul_width=self.mul_width,
        )

    @property
    def layout(self) -> UVectorLayout:
        return UVectorLayout(
            bw_a=self.bw_a,
            bw_b=self.bw_b,
            kua=self.kua,
            kub=self.kub,
            word_bits=self.word_bits,
        )

    @property
    def macs_per_cycle(self) -> int:
        """Peak micro-engine throughput for this configuration."""
        return self.binseg.macs_per_cycle

    @property
    def accmem_range(self) -> tuple[int, int]:
        """Representable ``[min, max]`` of one two's-complement AccMem slot."""
        half = 1 << (self.accmem_bits - 1)
        return -half, half - 1

    @property
    def min_buffer_depth(self) -> int:
        """Smallest Source Buffer depth that can stage one full group.

        A shallower buffer deadlocks the u-kernel: the DSU cannot start a
        group until all ``kua`` (resp. ``kub``) u-vectors are buffered,
        but the CPU stalls pushing them -- the condition
        :class:`~repro.core.microengine.MicroEngine` raises on at runtime
        and the packing contract rejects statically.
        """
        assert self.kua is not None and self.kub is not None
        return max(self.kua, self.kub)

    @property
    def compression_vs_fp64(self) -> tuple[float, float]:
        """Per-matrix problem-size reduction versus the 64-bit DGEMM
        baseline (paper: "from 8x to 32x")."""
        return self.word_bits / self.bw_a, self.word_bits / self.bw_b

    def with_sizes(self, bw_a: int, bw_b: int) -> "MixGemmConfig":
        """Derive a config for different data sizes, re-solving kua/kub."""
        return replace(self, bw_a=bw_a, bw_b=bw_b, kua=None, kub=None)

    def describe(self) -> str:
        lay = self.layout
        return (
            f"{self.name}: {self.macs_per_cycle} MAC/cycle, "
            f"kua={self.kua}, kub={self.kub}, "
            f"group={lay.group_elements} elements, "
            f"padding={lay.padding_fraction:.1%}, "
            f"blocking mc={self.blocking.mc} nc={self.blocking.nc} "
            f"kc={self.blocking.kc} mr={self.blocking.mr} nr={self.blocking.nr}"
        )


def all_size_combinations() -> list[tuple[int, int]]:
    """Every (bw_a, bw_b) pair Mix-GEMM supports: 7 x 7 = 49 combinations."""
    return [
        (a, w)
        for a in SUPPORTED_BITWIDTHS[::-1]
        for w in SUPPORTED_BITWIDTHS[::-1]
    ]


#: The 12 configurations plotted in the paper's Figure 6.
FIGURE6_CONFIGS = (
    (8, 8), (8, 6), (8, 4), (8, 2),
    (6, 6), (6, 4), (6, 2),
    (4, 4), (4, 2),
    (3, 3), (3, 2),
    (2, 2),
)
