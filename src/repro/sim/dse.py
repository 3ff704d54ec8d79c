"""Design-space exploration (paper Section III-C, Table I).

Three studies, reproducing the paper's methodology:

* **Blocking parameters** -- the analytical model of Low et al. [45]:
  ``kc`` sized so one A + one B u-panel fill half the L1, ``mc`` so an A
  panel fills the L2, ``mr = nr`` from the register-file budget.  On the
  32 KB / 512 KB SoC this lands exactly on Table I's
  mc = nc = kc = 256, mr = nr = 4.
* **kua/kub and padding** -- the RF holds kua*mr + kub*nr u-vectors, so 4
  is the bound; the zero-padding overhead across all supported
  configurations averages ~2.4%.
* **Source Buffer depth** -- sweep depths {8, 16, 32} with the
  event-driven u-engine and read the PMU stall fractions (the paper
  measures 17.8% / 14.3% / 11.2% full-buffer stalls and 2.3% bs.get
  stalls at depth 32, and picks 16 after weighing the 67.6% area growth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import (
    MixGemmConfig,
    BlockingParams,
    all_size_combinations,
    select_ku,
)
from repro.core.gemm import MixGemm
from repro.core.config import UVectorLayout

from .params import PAPER_SOC, SocParams


@dataclass(frozen=True)
class BlockingDse:
    """Result of the analytical blocking derivation."""

    blocking: BlockingParams
    l1_bytes_used: int
    l2_bytes_used: int


def optimal_register_tile(rf_registers: int = 32) -> tuple[int, int]:
    """mr = nr from the RF budget.

    The RF must hold the kua*mr A and kub*nr B u-vectors (the C u-panel
    lives in the AccMem instead).  With kua = kub = 4 and a 32-register
    file, mr = nr = 4 exhausts it exactly: 4*4 + 4*4 = 32.
    """
    mr = int(math.isqrt(rf_registers // 2))
    return mr, mr


def optimal_blocking(soc: SocParams = PAPER_SOC,
                     *, l1_fraction: float = 0.5) -> BlockingDse:
    """Analytical blocking for a given SoC (Low et al. [45]).

    All k-dimension quantities are in 64-bit u-vectors (words):

    * ``kc``: one A u-panel (mr x kc words) plus one B u-panel (nr x kc)
      must fit the L1 share reserved for them;
    * ``mc``: the packed A panel (mc x kc words) must fit the L2;
    * ``nc``: matched to mc (no L3 on the SoC to size it against).
    """
    mr, nr = optimal_register_tile(soc.rf_registers)
    word_bytes = soc.mul_width // 8
    kc = int(soc.l1_bytes * l1_fraction // ((mr + nr) * word_bytes))
    mc = int(soc.l2_bytes // (kc * word_bytes))
    nc = mc
    blocking = BlockingParams(mc=mc, nc=nc, kc=kc, mr=mr, nr=nr)
    return BlockingDse(
        blocking=blocking,
        l1_bytes_used=(mr + nr) * kc * word_bytes,
        l2_bytes_used=mc * kc * word_bytes,
    )


# ---------------------------------------------------------------------------
# Padding overhead (kua/kub study)
# ---------------------------------------------------------------------------


def padding_overheads(max_ku: int = 4) -> dict[tuple[int, int], float]:
    """Zero-padding slot fraction for every (bw_a, bw_b) combination."""
    out = {}
    for bw_a, bw_b in all_size_combinations():
        kua, kub = select_ku(bw_a, bw_b, max_ku=max_ku)
        lay = UVectorLayout(bw_a=bw_a, bw_b=bw_b, kua=kua, kub=kub)
        out[(bw_a, bw_b)] = lay.padding_fraction
    return out


def average_padding_overhead(max_ku: int = 4) -> float:
    """Mean padding across supported configurations (paper: 2.4%)."""
    values = list(padding_overheads(max_ku).values())
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# Source Buffer depth study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BufferDepthResult:
    """PMU readout for one Source Buffer depth."""

    depth: int
    buffer_stall_fraction: float
    get_stall_fraction: float
    cycles: int


def buffer_depth_study(
    depths: tuple[int, ...] = (8, 16, 32),
    *,
    configs: list[tuple[int, int]] | None = None,
    gemm_size: tuple[int, int, int] = (16, 16, 768),
    seed: int = 0,
    backend: str = "auto",
) -> list[BufferDepthResult]:
    """Run GEMM tasks per buffer depth and read the PMU stall counters.

    Mirrors the paper's PMU methodology: benchmark GEMMs across supported
    data-size configurations and record the fraction of cycles the core
    stalls on full Source Buffers / on ``bs.get``.  The sweep defaults to
    ``auto`` backend dispatch, which rides the vectorized fast path; its
    stall counters come from the event engine's own micro-kernel timing
    oracle, so the measured fractions are identical either way (pass
    ``backend="event"`` to cross-check).
    """
    if configs is None:
        configs = [(8, 8), (8, 4), (6, 4), (4, 4), (3, 2), (2, 2)]
    rng = np.random.default_rng(seed)
    m, n, k = gemm_size
    results = []
    for depth in depths:
        stall_fractions = []
        get_fractions = []
        total_cycles = 0
        for bw_a, bw_b in configs:
            cfg = MixGemmConfig(
                bw_a=bw_a, bw_b=bw_b, source_buffer_depth=depth,
                blocking=BlockingParams(mc=16, nc=16, kc=64),
            )
            a = rng.integers(-(1 << (bw_a - 1)), 1 << (bw_a - 1),
                             size=(m, k))
            b = rng.integers(-(1 << (bw_b - 1)), 1 << (bw_b - 1),
                             size=(k, n))
            result = MixGemm(cfg, emulate_datapath=False,
                             backend=backend).gemm(a, b)
            pmu = result.pmu
            stall_fractions.append(pmu.buffer_stall_fraction)
            get_fractions.append(pmu.get_stall_fraction)
            total_cycles += result.cycles
        results.append(BufferDepthResult(
            depth=depth,
            buffer_stall_fraction=float(np.mean(stall_fractions)),
            get_stall_fraction=float(np.mean(get_fractions)),
            cycles=total_cycles,
        ))
    return results


# ---------------------------------------------------------------------------
# Table I assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableI:
    """The DSE outcome table (paper Table I)."""

    mc: int
    nc: int
    kc: int
    mr: int
    nr: int
    kua: int
    kub: int
    accmem: int
    source_buffers: int


def table1(soc: SocParams = PAPER_SOC) -> TableI:
    """Reproduce Table I from the analytical DSE + buffer study outcome."""
    dse = optimal_blocking(soc)
    blk = dse.blocking
    kua, kub = select_ku(8, 8)
    return TableI(
        mc=blk.mc, nc=blk.nc, kc=blk.kc, mr=blk.mr, nr=blk.nr,
        kua=kua, kub=kub,
        accmem=blk.mr * blk.nr,
        source_buffers=16,  # chosen from the depth study + area tradeoff
    )
