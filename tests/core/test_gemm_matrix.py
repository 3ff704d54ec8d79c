"""The GEMM differential matrix: every executor of Algorithm 1 agrees.

Each case is one :class:`Row` of the matrix's axes (bit pair and
signedness, shape, blocking, AccMem width, C init, operand pattern and
core count).  :func:`_check` builds every executor fresh, because
engine clocks are cumulative: the event engine with the direct inner
product and with the emulated binary-segmentation datapath, the fast
:class:`~repro.core.gemm.MixGemm`, a compiled plan's fast
``_BoundGemm``, :func:`~repro.analysis.cost.predict_gemm` and
:class:`~repro.core.parallel.ParallelMixGemm`.  C must equal
:func:`~repro.core.gemm.reference_gemm` plus the C init, wrapped per
kc-block where the AccMem is narrower than 64 bits.  Cycles and every
PMU counter must equal the event-direct run's, and each parallel core
must equal an event-direct run on its column slice.  A row declares the
backend :func:`~repro.core.backend.resolve_backend` picks; the fast
executors run only where it picks ``fast``.
Tier-1 runs the rows without a mark; ``-m slow`` runs the rest.
"""

import itertools
import zlib
from dataclasses import asdict, dataclass, fields

import numpy as np
import pytest

from repro.analysis.cost import predict_gemm
from repro.core.backend import AUTO, resolve_backend
from repro.core.binseg import SUPPORTED_BITWIDTHS, value_range
from repro.core.config import (
    ACCMEM_CONTAINER_BITS,
    BlockingParams,
    MixGemmConfig,
)
from repro.core.fastpath import wrap_signed_array
from repro.core.gemm import MixGemm, reference_gemm
from repro.core.microengine import PmuCounters
from repro.core.packcache import PackingCache
from repro.core.parallel import ParallelMixGemm, column_partition
from repro.runtime.plan import SIM_BLOCKING, InferenceResult, _BoundGemm

#: Small cache blocks so ragged GEMMs cross several m, n and k blocks.
RAGGED_BLOCKING = BlockingParams(mc=8, nc=8, kc=2, mr=4, nr=4)
_BLOCKINGS = {"ragged": RAGGED_BLOCKING, "sim": SIM_BLOCKING,
              "table1": BlockingParams()}
_SIGNEDNESS = tuple(itertools.product((True, False), repeat=2))


@dataclass(frozen=True)
class Row:
    """One GEMM and the backend decision it must get.

    ``shape`` is ``(m, k, n)`` and ``signed`` is ``(signed_a,
    signed_b)``.  ``blocking`` names one of ``_BLOCKINGS`` or gives
    ``(mc, nc, kc, mr, nr)``.  ``c_init`` accumulates into a random
    int64 C.  ``operands`` is ``random`` or an Eq. 5 pattern of
    :func:`_operands`.  ``backend`` is what ``resolve_backend`` must
    pick under ``auto``, and ``wraps`` asserts that C differs from the
    unwrapped product.
    """

    bits: tuple = (8, 8)
    shape: tuple = (5, 37, 6)
    signed: tuple = (True, True)
    blocking: object = "ragged"
    accmem: int = 64
    c_init: bool = False
    operands: str = "random"
    cores: int = 2
    backend: str = "fast"
    wraps: bool = False


def _row_id(row):
    """The bit pair (``u`` marks unsigned), the shape and every other
    axis the row sets."""
    (a, w), (sa, sb) = row.bits, row.signed
    parts = [f"a{a}{'' if sa else 'u'}-w{w}{'' if sb else 'u'}",
             ".".join(map(str, row.shape))]
    for f in fields(Row)[3:]:
        value = getattr(row, f.name)
        if value != f.default:
            if isinstance(value, tuple):
                value = ".".join(map(str, value))
            parts.append(f"{f.name}={value}")
    return "-".join(parts)


def _config(row):
    blocking = (_BLOCKINGS[row.blocking] if isinstance(row.blocking, str)
                else BlockingParams(*row.blocking))
    return MixGemmConfig(bw_a=row.bits[0], bw_b=row.bits[1],
                         signed_a=row.signed[0], signed_b=row.signed[1],
                         accmem_bits=row.accmem, blocking=blocking)


def _operands(row, config):
    """A, B and the C init (``None`` without one).  The Eq. 5 patterns
    hold A at its maximum against B at its minimum (``extreme``), in a
    checkerboard (``alternating``) or maximum then minimum along K
    (``halves``: the running sum peaks mid-block, then falls)."""
    m, k, n = row.shape
    lo_a, hi_a = value_range(config.bw_a, config.signed_a)
    lo_b, hi_b = value_range(config.bw_b, config.signed_b)
    rng = np.random.default_rng(zlib.crc32(_row_id(row).encode()))
    if row.operands == "random":
        a = rng.integers(lo_a, hi_a + 1, size=(m, k))
        b = rng.integers(lo_b, hi_b + 1, size=(k, n))
    else:
        a = np.full((m, k), hi_a, dtype=np.int64)
        rows, cols = np.indices((k, n))
        b = {"extreme": np.full((k, n), lo_b, dtype=np.int64),
             "alternating": np.where((rows + cols) % 2 == 0, hi_b, lo_b),
             "halves": np.where(rows < k // 2, hi_b, lo_b)}[row.operands]
    c0 = (rng.integers(-(1 << 31), 1 << 31, size=(m, n))
          if row.c_init else None)
    return a, b, c0


def _product(config, a, b):
    """``A @ B`` with each kc-block's partial wrapped to the AccMem."""
    bits = config.accmem_bits
    if bits >= ACCMEM_CONTAINER_BITS:
        return reference_gemm(a, b)
    kc = config.kc_elements
    return sum(wrap_signed_array(reference_gemm(a[:, p:p + kc],
                                                b[p:p + kc]), bits)
               for p in range(0, a.shape[1], kc))


def _as_pmu(bd):
    """A :class:`~repro.analysis.cost.CostBreakdown`'s counters as the
    engine's PMU."""
    return PmuCounters(
        cycles_total=bd.cycles,
        engine_busy_cycles=bd.engine_busy_cycles,
        buffer_full_stall_cycles=bd.buffer_full_stall_cycles,
        get_stall_cycles=bd.get_stall_cycles,
        macs=bd.macs_issued,
        groups=bd.groups,
        ip_instructions=bd.ip_instructions,
        get_instructions=bd.get_instructions,
        set_instructions=bd.set_instructions,
    )


def _run(config, a, b, c0=None, *, emulate=False, backend="event"):
    result = MixGemm(config, emulate_datapath=emulate, backend=backend).gemm(
        a, b, None if c0 is None else c0.copy())
    return result.c, (result.cycles, asdict(result.pmu))


def _assert_same(got, want, what):
    np.testing.assert_array_equal(got[0], want[0], err_msg=what)
    assert got[1] == want[1], what


def _check(row):
    config = _config(row)
    a, b, c0 = _operands(row, config)
    m, k, n = row.shape
    assert resolve_backend(AUTO, config).backend == row.backend
    product = _product(config, a, b)
    want = product if c0 is None else product + c0
    if row.wraps:
        assert not np.array_equal(product, reference_gemm(a, b))

    direct = _run(config, a, b, c0)
    np.testing.assert_array_equal(direct[0], want)
    _assert_same(_run(config, a, b, c0, emulate=True), direct, "emulated")
    if row.backend == "fast":
        _assert_same(_run(config, a, b, c0, backend="fast"), direct, "fast")
        bound = _BoundGemm(b, config, "fast", PackingCache(), "layer",
                           "quant_linear")
        result = InferenceResult(output=a)
        c = bound(a.astype(bound.input_dtype), result)
        assert c.dtype == bound.kernel.acc_dtype
        np.testing.assert_array_equal(c, product)
        assert [s.cycles for s in result.layer_stats] == [direct[1][0]]
        predicted = predict_gemm(config, None, m, n, k)
        assert asdict(_as_pmu(predicted)) == direct[1][1]
        assert predicted.phase_identity_holds()

    bank = ParallelMixGemm(config, cores=row.cores)
    parallel = bank.gemm(a, b)
    slices = column_partition(n, row.cores, config.blocking.nr)
    assert len(parallel.per_core) == len(slices)
    for core, (lo, hi) in zip(parallel.per_core, slices):
        _assert_same((core.c, (core.cycles, asdict(core.pmu))),
                     _run(config, a, b[:, lo:hi]), f"core {lo}:{hi}")
    np.testing.assert_array_equal(parallel.c, product)
    assert parallel.cycles == (max(core.cycles for core in parallel.per_core)
                               + bank.barrier_cycles)


# -- the rows -----------------------------------------------------------------


def _register_tile_row(bits, mr, nr, signed):
    """One full kc-block plus a 9-group tail on ragged edge tiles in
    both dimensions, at a ``mr x nr`` register tile."""
    blocking = (16, 16, 64, mr, nr)
    config = _config(Row(bits, blocking=blocking))
    k = config.kc_elements + 9 * config.layout.group_elements
    return Row(bits, (2 * mr + 1, k, nr + 1), (signed, signed), blocking)


def _narrow_tile_row(mr, nr, k, n, **kw):
    """A ``mr x nr`` register tile with ``mc``/``nc`` aligned to it."""
    return Row(shape=(5, k, n), blocking=(2 * mr, 4 * nr, 16, mr, nr), **kw)


#: (bw_a, bw_b, mr, nr) register tiles whose stall split a fitted tile
#: law once got wrong from g=7 on; the 4x4 rows are controls.
_REGISTER_TILES = [
    (5, 8, 2, 4), (2, 3, 2, 4), (2, 7, 2, 4),
    (8, 5, 4, 2), (3, 2, 4, 2), (7, 2, 4, 2),
    (3, 6, 2, 2), (6, 3, 2, 2), (6, 7, 2, 2), (7, 6, 2, 2),
    (5, 8, 4, 4), (8, 5, 4, 4), (2, 3, 4, 4),
]


def _slow_rows():
    # Every pair and signedness on ragged shapes: m and n off the 4x4
    # tile, k off the group size, kc = 2 so k spans several blocks.
    for (a, w), signed in itertools.product(
            itertools.product(SUPPORTED_BITWIDTHS, repeat=2), _SIGNEDNESS):
        ge = MixGemmConfig(bw_a=a, bw_b=w).layout.group_elements
        salt = a * 7 + w + 2 * signed[0] + signed[1]
        yield Row((a, w), (9, 3 * ge + 5, 7), signed,
                  accmem=(8, 12, 16, 33, 64, 128)[salt % 6],
                  c_init=salt % 3 == 0)
    # Every pair on three more shapes, and under three kc.
    shapes = [(5, 37, 6), (1, 3, 11), (8, 64, 8)]
    for a, w in itertools.product(SUPPORTED_BITWIDTHS, repeat=2):
        yield Row((a, w), shapes[(a + w) % 3],
                  accmem=(8, 12, 16, 32, 64)[(a * 7 + w) % 5])
        for kc in (8, 64, 256):
            yield Row((a, w), (12, 96, 8), blocking=(16, 16, kc, 4, 4))
    for case, signed in itertools.product(_REGISTER_TILES, (True, False)):
        yield _register_tile_row(case[:2], *case[2:], signed)
    # Every narrow register tile on K = 1, 9 and three kc-blocks.
    for mr, nr, k, n in itertools.product((1, 2, 3, 4), (1, 2, 3, 4),
                                          (1, 9, 300), (1, 2, 3, 4)):
        yield _narrow_tile_row(mr, nr, k, n, bits=(4, 2))
    # Each AccMem width under each kc; with the full container the kc
    # split is a schedule choice, below it the wrap points move.
    for accmem, kc in itertools.product((12, 16, 20, 24, 33, 64, 128),
                                        (2, 16, 64, 1024)):
        yield Row(shape=(4, 1100, 4), blocking=(8, 8, kc, 4, 4),
                  accmem=accmem)
    for kc in (2, 16, 64, 1024):
        yield Row(shape=(8, 4096, 8), blocking=(8, 8, kc, 4, 4))
    for kc in (16, 1024):
        yield Row(shape=(4, 4096, 4), blocking=(16, 16, kc, 4, 4),
                  accmem=16, wraps=True)
    # Core counts on ragged N.
    for n, cores in itertools.product((4, 7, 13), (1, 3, 4, 8)):
        yield Row(shape=(8, 96, n), blocking=(8, 8, 64, 4, 4), cores=cores)
    # The Eq. 5 extremes at SIM_BLOCKING: the tightest float32 block
    # (kc_eff = 512), wrapping two-block sums and a float64 block.
    for operands, accmem in itertools.product(
            ("extreme", "alternating", "halves"), (16, 20, 24, 64)):
        yield Row(shape=(4, 1024, 4), signed=(False, True),
                  blocking="sim", accmem=accmem, operands=operands)
    yield Row(shape=(4, 1500, 4), signed=(False, True),
              blocking=(16, 16, 128, 4, 4), operands="halves")
    for bits, signed in itertools.product(((8, 8), (2, 2), (8, 2)),
                                          _SIGNEDNESS):
        yield Row(bits, (13, 700, 11), signed, "table1", c_init=True)
    yield Row(shape=(13, 67, 21), blocking=(10, 8, 2, 4, 4), cores=3)
    yield Row(shape=(5, 300, 6), signed=(False, False), accmem=128,
              blocking=(8, 8, 1 << 46, 4, 4), backend="event")


_TIER1 = [
    # Bit pairs on ragged shapes, and at 8x8/64 blocking.
    *(Row(bits, accmem=16) for bits in ((8, 8), (8, 4), (6, 4), (4, 2),
                                        (3, 3), (2, 2))),
    *(Row(bits, (12, 40, 9), blocking=(8, 8, 64, 4, 4))
      for bits in ((8, 8), (8, 6), (8, 4), (8, 2), (6, 4), (4, 4), (3, 3),
                   (2, 2), (4, 8), (2, 8))),
    Row((6, 4), (8, 35, 8), blocking=(8, 8, 64, 4, 4), c_init=True),
    # Every signedness, unsigned at Table I.
    Row((5, 3), (9, 41, 7), (False, True)),
    Row((3, 7), (9, 41, 7), (True, False), accmem=12),
    Row((8, 2), (6, 20, 6), (False, False), "table1"),
    # Tiny, ragged and sub-group shapes.
    *(Row(shape=shape, accmem=16) for shape in (
        (1, 1, 1), (1, 5, 1), (7, 19, 9), (8, 64, 8), (4, 2, 12))),
    *(Row((4, 4), shape, blocking="table1")
      for shape in ((2, 3, 4), (4, 4, 4))),
    Row(shape=(4, 3, 4), blocking="table1"),
    Row(shape=(13, 67, 11), blocking=(8, 8, 64, 4, 4)),
    # K = 9 on N < 4 at narrow register tiles, N = 1..4 at K = 1.
    *(_narrow_tile_row(4, nr, 9, n) for nr in (1, 2, 3) for n in (1, 2, 3)),
    *(_narrow_tile_row(mr, 4, 9, 4, bits=(2, 2)) for mr in (1, 2, 3)),
    *(_narrow_tile_row(3, 3, 1, n, bits=(5, 5)) for n in (1, 2, 3, 4)),
    # Short kc tails: full blocks plus 9 or 8 elements, or 9 groups.
    Row(shape=(5, 521, 5), blocking="sim"),
    Row((2, 2), (5, 137, 7), accmem=20),
    Row(shape=(8, 520, 8), blocking=(16, 16, 8, 4, 4)),
    _register_tile_row((5, 8), 2, 4, True),
    _register_tile_row((8, 5), 4, 2, False),
    # AccMem widths: wrapping mid-block, and a wrapped C init.
    *(Row(shape=(6, 40, 6), accmem=bits, wraps=bits < 20)
      for bits in (8, 12, 16, 33, 64, 128)),
    Row(shape=(5, 12, 6), accmem=12, c_init=True),
    Row(shape=(4, 300, 4), blocking=(16, 16, 16, 4, 4), accmem=16,
        wraps=True),
    # kc variants on the full container.
    *(Row(shape=(4, 300, 4), blocking=(8, 8, kc, 4, 4))
      for kc in (2, 16, 64, 1024)),
    # The Eq. 5 extremes: the tightest float32 block, the two-block
    # sums that wrap a sub-container AccMem, and a float64 block.
    *(Row(shape=(4, 512, 4), signed=(False, True), blocking="sim",
          operands=operands) for operands in ("extreme", "alternating",
                                              "halves")),
    *(Row(shape=(4, 1024, 4), signed=(False, True), blocking="sim",
          accmem=bits, operands="extreme", wraps=True) for bits in (20, 24)),
    Row(shape=(4, 1500, 4), signed=(False, True),
        blocking=(16, 16, 128, 4, 4), operands="extreme"),
    # Cores: a ragged last slice, more cores than tiles, one core.
    Row(shape=(8, 96, 13), blocking=(8, 8, 64, 4, 4), cores=4),
    Row(shape=(8, 96, 4), blocking=(8, 8, 64, 4, 4), cores=8),
    Row((4, 4), (8, 96, 16), blocking=(8, 8, 64, 4, 4), cores=3),
    Row(shape=(3, 20, 5), cores=1),
    # Misaligned blockings: mc (and nc) off the register tile, so the
    # last tile of each cache block is cut at the block's edge.
    Row(shape=(13, 20, 7), blocking=(10, 8, 2, 4, 4)),
    Row(shape=(25, 67, 21), blocking=(10, 6, 2, 4, 4)),
    # Event only: a block bound past int64.
    Row(shape=(5, 37, 6), accmem=128, blocking=(8, 8, 1 << 46, 4, 4),
        backend="event"),
]


@pytest.mark.parametrize("row", _TIER1 + [
    pytest.param(row, marks=pytest.mark.slow)
    for row in dict.fromkeys(_slow_rows()) if row not in _TIER1],
    ids=_row_id)
def test_gemm_matrix(row):
    _check(row)
