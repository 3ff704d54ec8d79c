"""Vectorized fast-path backend: exact values, exact analytic timing.

The event backend executes Algorithm 1 word by word -- every u-vector
pair is a :meth:`~repro.core.microengine.MicroEngine.push_pair` call --
which makes a 256x256x256 GEMM millions of Python-level events.  This
module computes the identical :class:`~repro.core.gemm.GemmResult`
without ever touching the engine on the hot path, exploiting two
properties of the reference implementation:

**Values.**  Within one kc-block, the engine folds per-group partial
products into a finite AccMem slot with ``wrap_signed`` after every
group; because reduction mod ``2**bits`` commutes with addition, the
collected slot value equals ``wrap_signed(block_dot_product,
accmem_bits)`` -- one wrap of the exact block inner product.  numpy's
int64 matmul reduces mod ``2**64``, and mod ``2**bits`` factors through
mod ``2**64`` for ``bits <= 64``, so a blocked int64 matmul plus one
vectorized wrap per kc-block reproduces the event backend bit for bit.
A float matmul is just as exact whenever every partial sum is an
integer the float type holds: each partial sum of a block is a sum of a
subset of its products, so its magnitude is at most the Eq. 5 block
bound ``kc * max|A| * max|B|`` in *any* summation order.
:class:`FastGemmKernel` therefore multiplies each block in the narrowest
exact type -- float32 below ``2**24`` (the BLAS sgemm), float64 below
``2**53`` (dgemm), int64 otherwise -- and keeps integer operands narrow
from end to end.  Under the Table-I blocking the tightest 2-8-bit block
(unsigned a8w8, ``kc = 512``) bounds at 16,711,680 = 0.996 * 2**24, so
every such layer rides sgemm in a single pass.

**Timing.**  The micro-kernel's cycle count is data independent (stall
logic only looks at counts and arrival times, never word values) and
translation invariant (each micro-kernel starts with the CPU at or past
the engine, empty queues, and all buffer releases in the past, because
the collection loop drains the engine).  One micro-kernel execution is
therefore a pure function of ``(config, costs, n_groups)``, so
:func:`tile_timing` runs the real engine once on zero panels per
distinct signature and the whole-GEMM totals are assembled
arithmetically over the blocked loop geometry
(:func:`gemm_tile_counts`, :func:`kblock_group_counts`).  The
calibrated closed-form model in :mod:`repro.analysis.cost` fits itself
against the same :func:`tile_timing` runs but never feeds the fast
path: the engine is its only timing source.  The C-update cycles are
added analytically: with ``mc % mr == 0`` and ``nc % nr == 0`` the
in-range cells of each kc-block sum to exactly ``m * n``.

The timing source *is* the production micro-kernel, so cycles, PMU
counters and instruction counts match the event backend exactly -- the
differential suite in ``tests/core/test_fastpath.py`` asserts equality,
not approximation.  Configurations the model cannot reproduce (register
blockings that overlap cache blocks, >64-bit AccMems near int64
overflow) refuse via :class:`FastPathFallback` and run on the event
backend instead; :mod:`repro.core.backend` makes that routing decision.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .binseg import BinSegError, ceil_div, value_range
from .config import ACCMEM_CONTAINER_BITS, MixGemmConfig
from .isa import BS_SET_COST
from .microengine import PmuCounters
from .packing import (
    _check_matrix,
    aligned_kc,
    create_micro_panel,
    pack_matrix_a,
    pack_matrix_b,
)

if TYPE_CHECKING:  # imported lazily at runtime to keep gemm -> fastpath
    from .gemm import GemmResult, KernelCosts  # one-directional at load

#: Magnitudes below these are integers float32 / float64 hold exactly.
_FLOAT32_EXACT = 1 << 24
_FLOAT64_EXACT = 1 << 53

#: First magnitude an int64 accumulator cannot represent.
_INT64_HALF = 1 << 63


class FastPathFallback(Exception):  # repro: noqa REP001
    """The fast path cannot reproduce this run; use the event backend.

    Deliberately *not* a :class:`~repro.core.errors.ReproError`: it is
    an internal control-flow signal consumed by ``MixGemm.gemm``, never
    an error surfaced to callers.
    """


def wrap_signed_array(values: np.ndarray, bits: int) -> np.ndarray:
    """Vectorized :func:`~repro.core.microengine.wrap_signed`.

    For ``bits >= 64`` the int64 representation already is the wrapped
    value.  Below that, the add-half / mask / subtract-half dance stays
    inside uint64 arithmetic, avoiding the signed-overflow hazards a
    naive ``np.where`` formulation would hit at ``1 << 63``.
    """
    if bits >= ACCMEM_CONTAINER_BITS:
        return values
    half = 1 << (bits - 1)
    shifted = (values.astype(np.uint64) + np.uint64(half)) \
        & np.uint64((1 << bits) - 1)
    return shifted.astype(np.int64) - np.int64(half)


@dataclass(frozen=True)
class MicroKernelTiming:
    """Observed per-micro-kernel deltas (C updates excluded)."""

    cpu_cycles: int
    buffer_full_stall_cycles: int
    get_stall_cycles: int
    engine_busy_cycles: int
    groups: int
    macs: int
    ip_instructions: int
    get_instructions: int


@dataclass(frozen=True)
class FastPathTiming:
    """Whole-GEMM analytic timing (the single ``bs.set`` included).

    ``macs`` here is the PMU's issued-MAC count (full register tiles,
    zero-padded edges included), not the algebraic ``m * n * k``.
    """

    cycles: int
    buffer_full_stall_cycles: int
    get_stall_cycles: int
    engine_busy_cycles: int
    groups: int
    macs: int
    ip_instructions: int
    get_instructions: int

    def to_pmu(self) -> PmuCounters:
        """Materialize the equivalent PMU counter block."""
        return PmuCounters(
            cycles_total=self.cycles,
            buffer_full_stall_cycles=self.buffer_full_stall_cycles,
            get_stall_cycles=self.get_stall_cycles,
            engine_busy_cycles=self.engine_busy_cycles,
            groups=self.groups,
            macs=self.macs,
            ip_instructions=self.ip_instructions,
            get_instructions=self.get_instructions,
            set_instructions=1,
        )


@functools.lru_cache(maxsize=None)
def tile_timing(config: MixGemmConfig, costs: "KernelCosts",
                n_groups: int) -> MicroKernelTiming:
    """Run the real micro-kernel once on zero panels and record deltas.

    The one per-tile timing source: :func:`fastpath_timing` assembles
    whole GEMMs from it and cost-model calibration
    (:func:`repro.analysis.cost.calibrate.calibrate_tile`) probes it.

    ``n_groups`` is the per-tile group count of one kc-block; the engine
    always schedules *full* groups (tail groups keep the full DSU walk),
    so a ``n_groups * group_elements``-long zero run times identically
    to any ragged production tile with the same group count.  Passing an
    empty C matrix keeps every collection cell out of range, so the
    measured CPU delta excludes C updates -- those are added
    analytically per in-range output element.
    """
    from .gemm import MixGemm

    blk = config.blocking
    lay = config.layout
    k_len = n_groups * lay.group_elements
    executor = MixGemm(config, emulate_datapath=False, costs=costs,
                       backend="event")
    a_up = create_micro_panel(
        pack_matrix_a(np.zeros((blk.mr, k_len), dtype=np.int64), config),
        0, blk.mr, 0, k_len,
    )
    b_up = create_micro_panel(
        pack_matrix_b(np.zeros((k_len, blk.nr), dtype=np.int64), config),
        0, blk.nr, 0, k_len,
    )
    engine = executor.engine
    engine.set_config(config)
    pmu = engine.pmu
    start = engine.now
    base = (
        pmu.buffer_full_stall_cycles,
        pmu.get_stall_cycles,
        pmu.engine_busy_cycles,
        pmu.groups,
        pmu.macs,
        pmu.ip_instructions,
        pmu.get_instructions,
    )
    executor._micro_kernel(a_up, b_up, np.zeros((0, 0), dtype=np.int64),
                           0, 0)
    return MicroKernelTiming(
        cpu_cycles=engine.now - start,
        buffer_full_stall_cycles=pmu.buffer_full_stall_cycles - base[0],
        get_stall_cycles=pmu.get_stall_cycles - base[1],
        engine_busy_cycles=pmu.engine_busy_cycles - base[2],
        groups=pmu.groups - base[3],
        macs=pmu.macs - base[4],
        ip_instructions=pmu.ip_instructions - base[5],
        get_instructions=pmu.get_instructions - base[6],
    )


def _kc_and_product_bound(config: MixGemmConfig) -> tuple[int, int]:
    """``(kc_eff, max|a*b|)``: the kc-block length and Eq. 5 product bound."""
    lay = config.layout
    kc_eff = aligned_kc(config.blocking.kc * lay.elems_a, lay.group_elements)
    lo_a, hi_a = value_range(config.bw_a, config.signed_a)
    lo_b, hi_b = value_range(config.bw_b, config.signed_b)
    return kc_eff, max(-lo_a, hi_a) * max(-lo_b, hi_b)


def exact_dtype(bound: int) -> type:
    """Narrowest type whose arithmetic is exact on sums bounded by ``bound``."""
    if bound < _FLOAT32_EXACT:
        return np.float32
    if bound < _FLOAT64_EXACT:
        return np.float64
    return np.int64


def fastpath_applicable(config: MixGemmConfig, k: int) -> str | None:
    """Why the fast path must refuse this run, or ``None`` if it can go.

    Mirrors the refusal checks of :func:`run_fastpath` (same order) so a
    compiled plan can decide *once* whether a layer will ride the fast
    path without paying an exception on every call.
    """
    blk = config.blocking
    if blk.mc % blk.mr or blk.nc % blk.nr:
        return "edge tiles overlap cache blocks; event backend required"
    kc_eff, prod_max = _kc_and_product_bound(config)
    bits = config.accmem_bits
    block_bound = min(kc_eff, max(k, 1)) * prod_max
    if bits > ACCMEM_CONTAINER_BITS and block_bound >= _INT64_HALF:
        return (f"accmem_bits={bits} with block bound {block_bound} "
                f">= 2**63 exceeds int64 accumulation")
    return None


def gemm_tile_counts(config: MixGemmConfig, m: int,
                     n: int) -> tuple[int, int]:
    """(row_tiles, col_tiles) of the blocked loop nest for one GEMM."""
    blk = config.blocking
    row_tiles = sum(ceil_div(min(blk.mc, m - ic), blk.mr)
                    for ic in range(0, m, blk.mc))
    col_tiles = sum(ceil_div(min(blk.nc, n - jc), blk.nr)
                    for jc in range(0, n, blk.nc))
    return row_tiles, col_tiles


def kblock_group_counts(config: MixGemmConfig, k: int) -> list[int]:
    """Per-kc-block tile group counts, in execution order.

    At most two distinct values appear (full blocks plus one tail), so
    downstream assembly is O(1) in K after this split.
    """
    lay = config.layout
    kc_eff = aligned_kc(config.blocking.kc * lay.elems_a,
                        lay.group_elements)
    return [ceil_div(min(kc_eff, k - pc), lay.group_elements)
            for pc in range(0, k, kc_eff)]


@functools.lru_cache(maxsize=None)
def fastpath_timing(config: MixGemmConfig, costs: "KernelCosts", m: int,
                    n: int, k: int) -> FastPathTiming:
    """Analytic timing of one fast-path GEMM, memoized by shape.

    Cycles on the fast path are a pure function of ``(config, costs, m,
    n, k)`` -- :func:`tile_timing` is data independent and the blocked
    loop geometry depends only on the shape -- so a compiled plan can
    look the whole-GEMM timing up once and reuse it on every call.
    Caller must have cleared :func:`fastpath_applicable` first.
    """
    tile_config = replace(config, backend="event")
    row_tiles, col_tiles = gemm_tile_counts(config, m, n)
    tiles_per_kblock = row_tiles * col_tiles

    cycles = BS_SET_COST  # the single bs.set
    stalls_full = stalls_get = busy = groups = macs = ips = gets = 0
    for n_groups in kblock_group_counts(config, k):
        tile = tile_timing(tile_config, costs, n_groups)
        cycles += (tiles_per_kblock * tile.cpu_cycles
                   + m * n * costs.c_update_cost)
        stalls_full += tiles_per_kblock * tile.buffer_full_stall_cycles
        stalls_get += tiles_per_kblock * tile.get_stall_cycles
        busy += tiles_per_kblock * tile.engine_busy_cycles
        groups += tiles_per_kblock * tile.groups
        macs += tiles_per_kblock * tile.macs
        ips += tiles_per_kblock * tile.ip_instructions
        gets += tiles_per_kblock * tile.get_instructions
    return FastPathTiming(
        cycles=cycles,
        buffer_full_stall_cycles=stalls_full,
        get_stall_cycles=stalls_get,
        engine_busy_cycles=busy,
        groups=groups,
        macs=macs,
        ip_instructions=ips,
        get_instructions=gets,
    )


class FastGemmKernel:
    """The fast path's exact blocked GEMM with the B operand baked in.

    Built once from ``(config, validated int64 B)``; owns the kc-block
    split, each block's operand type (:func:`exact_dtype` of its Eq. 5
    bound) and the per-block AccMem wrap.  ``blocks`` holds
    ``(k-slice, B panel, dtype)`` triples and is the only place the
    panels live, so a plan exporter can rebind them and the
    plan-equivalence verifier can read them.

    ``input_dtype`` is the type A may arrive in without ever being
    widened: float32 when every block multiplies in float32 and nothing
    wraps, int64 otherwise.  Calls return the exact product in
    ``acc_dtype`` -- int64 when the AccMem wraps (the wrap needs
    integers), else the narrowest type exact on the whole-K bound, so a
    single float32 block comes back as float32 with no cast at all.
    """

    def __init__(self, config: MixGemmConfig, b: np.ndarray) -> None:
        k, self.n = b.shape
        self.kc_eff, prod_max = _kc_and_product_bound(config)
        bits = config.accmem_bits
        self.wrap_bits = bits if bits < ACCMEM_CONTAINER_BITS else None
        self.blocks: list[tuple[slice, np.ndarray, type]] = []
        for pc in range(0, k, self.kc_eff):
            kc_blk = min(self.kc_eff, k - pc)
            dtype = exact_dtype(kc_blk * prod_max)
            self.blocks.append((slice(pc, pc + kc_blk),
                                b[pc:pc + kc_blk].astype(dtype), dtype))
        if self.wrap_bits is None:
            self.acc_dtype = exact_dtype(k * prod_max)
            narrow = all(d is np.float32 for _, _, d in self.blocks)
        else:
            self.acc_dtype = np.int64
            narrow = False
        self.input_dtype = np.float32 if narrow else np.int64

    def _block(self, a_blk: np.ndarray, b_blk: np.ndarray,
               dtype: type) -> np.ndarray:
        partial = a_blk.astype(dtype, copy=False) @ b_blk
        if self.wrap_bits is not None:
            return wrap_signed_array(partial.astype(np.int64, copy=False),
                                     self.wrap_bits)
        return partial.astype(self.acc_dtype, copy=False)

    def __call__(self, a: np.ndarray) -> np.ndarray:
        """Exact ``A @ B`` (per-block wrapped) for ``a`` in the A range."""
        if len(self.blocks) == 1:
            _, b_blk, dtype = self.blocks[0]
            return self._block(a, b_blk, dtype)
        c = np.zeros((a.shape[0], self.n), dtype=self.acc_dtype)
        for sl, b_blk, dtype in self.blocks:
            c += self._block(a[:, sl], b_blk, dtype)
        return c


def run_fastpath(config: MixGemmConfig, costs: "KernelCosts", a: np.ndarray,
                 b: np.ndarray,
                 c: np.ndarray | None = None) -> "GemmResult":
    """Compute one GEMM on the fast path; returns a ``GemmResult``.

    Validation mirrors ``MixGemm.gemm`` + the packers step for step so
    both backends raise the same :class:`BinSegError` in the same order
    on malformed inputs.  Raises :class:`FastPathFallback` when only the
    event backend can reproduce the run.
    """
    from .gemm import GemmResult

    a_arr = np.asarray(a)
    b_arr = np.asarray(b)
    if a_arr.ndim != 2 or b_arr.ndim != 2:
        raise BinSegError("gemm expects 2-D operands")
    m, k = a_arr.shape
    kb, n = b_arr.shape
    if k != kb:
        raise BinSegError(f"inner dimensions differ: {k} vs {kb}")
    if c is None:
        c = np.zeros((m, n), dtype=np.int64)
    elif c.shape != (m, n):
        raise BinSegError(f"C shape {c.shape} does not match ({m}, {n})")

    a64 = _check_matrix(a_arr, config.bw_a, config.signed_a, "A")
    if k == 0 and m > 0:
        raise BinSegError("cannot pack an empty k vector")
    b64 = _check_matrix(b_arr, config.bw_b, config.signed_b, "B")
    if k == 0 and n > 0:
        raise BinSegError("cannot pack an empty k vector")

    refusal = fastpath_applicable(config, k)
    if refusal is not None:
        # The >64-bit AccMem case would carry where int64 wraps; only
        # the bignum-backed event engine models that faithfully.
        raise FastPathFallback(refusal)

    timing = fastpath_timing(config, costs, m, n, k)
    c += FastGemmKernel(config, b64)(a64).astype(np.int64, copy=False)

    pmu = timing.to_pmu()
    return GemmResult(
        c=c,
        cycles=timing.cycles,
        macs=m * n * k,
        pmu=pmu,
        config=config,
        instructions={
            "bs.set": pmu.set_instructions,
            "bs.ip": pmu.ip_instructions,
            "bs.get": pmu.get_instructions,
        },
        backend="fast",
    )
