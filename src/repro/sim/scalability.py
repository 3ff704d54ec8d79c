"""Scalability models: multi-core SoCs and wider-SIMD u-engines.

Section III-B sketches two scaling axes for Mix-GEMM; both are modelled
here on top of the single-core performance model:

* **multi-core** -- one u-engine per core, BLIS jr-loop parallelism,
  shared L2 (contention grows with core count), a barrier per GEMM;
* **wider SIMD** -- 128/256-bit u-vector loads with the DSU/DCU selecting
  a proportionally wider cluster spread over several multipliers: the
  engine drains ``lanes`` groups' worth of elements per schedule pass,
  and area grows with the widened Source Buffers and datapath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import MixGemmConfig

from .area import UEngineArea
from .params import (
    DEFAULT_MEMORY_COSTS,
    PAPER_SOC,
    MemoryCosts,
    SocParams,
)
from .perf import MixGemmPerfModel, PerfResult


@dataclass(frozen=True)
class MultiCoreResult:
    """Whole-GEMM outcome on a multi-core SoC."""

    cores: int
    cycles: float
    macs: int
    single_core_cycles: float

    @property
    def speedup(self) -> float:
        return self.single_core_cycles / self.cycles

    @property
    def efficiency(self) -> float:
        return self.speedup / self.cores

    def gops(self, freq_ghz: float = 1.2) -> float:
        return 2.0 * self.macs / self.cycles * freq_ghz


class MultiCorePerfModel:
    """N-dimension-parallel Mix-GEMM timing over several cores.

    Each core runs an independent u-engine on a column slice; the shared
    L2/DRAM path serializes partially, modelled by inflating per-core
    memory stalls with a contention factor ``1 + alpha * (cores - 1)``.
    """

    def __init__(
        self,
        cores: int,
        soc: SocParams = PAPER_SOC,
        *,
        mem_contention: float = 0.12,
        barrier_cycles: float = 200.0,
        mem_costs: MemoryCosts = DEFAULT_MEMORY_COSTS,
    ) -> None:
        if cores < 1:
            raise ValueError("cores must be >= 1")
        self.cores = cores
        self.mem_contention = mem_contention
        self.barrier_cycles = barrier_cycles
        self.single = MixGemmPerfModel(soc, mem_costs=mem_costs)

    def gemm(self, m: int, n: int, k: int,
             config: MixGemmConfig) -> MultiCoreResult:
        single = self.single.gemm(m, n, k, config)
        nr = config.blocking.nr
        slice_n = max(nr, math.ceil(n / self.cores / nr) * nr)
        per_core = self.single.gemm(m, min(n, slice_n), k, config)
        contention = 1.0 + self.mem_contention * (self.cores - 1)
        cycles = (
            per_core.compute_cycles
            + per_core.memory_stall_cycles * contention
            + self.barrier_cycles
        )
        return MultiCoreResult(
            cores=self.cores,
            cycles=cycles,
            macs=m * n * k,
            single_core_cycles=single.total_cycles,
        )


# ---------------------------------------------------------------------------
# Wider SIMD u-engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WideSimdDesign:
    """A widened u-engine: datapath lanes and the area it costs."""

    lanes: int
    area_um2: float
    area_overhead_vs_baseline: float


def wide_simd_area(lanes: int) -> WideSimdDesign:
    """Area of a ``lanes``-wide u-engine.

    Source Buffers widen linearly with the u-vector width; DSU/DCU/DFU/
    adder replicate per lane; the Control Unit is shared.
    """
    if lanes < 1:
        raise ValueError("lanes must be >= 1")
    base = UEngineArea()
    area = 0.0
    for name in base.components:
        if name == "control_unit":
            area += base.component_area(name)
        else:
            area += base.component_area(name) * lanes
    return WideSimdDesign(
        lanes=lanes,
        area_um2=area,
        area_overhead_vs_baseline=area / base.total_um2,
    )


class WideSimdPerfModel(MixGemmPerfModel):
    """Performance model for a ``lanes``-wide u-engine.

    The engine drains ``lanes`` accumulation groups concurrently (one per
    multiplier), and the wider loads move ``lanes`` u-vectors per
    instruction, shrinking the CPU issue stream proportionally.
    """

    def __init__(self, lanes: int, soc: SocParams = PAPER_SOC,
                 **kwargs) -> None:
        super().__init__(soc, **kwargs)
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        self.lanes = lanes

    def gemm(self, m: int, n: int, k: int,
             config: MixGemmConfig) -> PerfResult:
        base = super().gemm(m, n, k, config)
        if self.lanes == 1:
            return base
        return PerfResult(
            m=m, n=n, k=k, macs=base.macs,
            engine_cycles=base.engine_cycles / self.lanes,
            cpu_cycles=base.cpu_cycles / self.lanes,
            collection_cycles=base.collection_cycles,
            memory_stall_cycles=base.memory_stall_cycles,
            traffic=base.traffic,
            freq_ghz=base.freq_ghz,
        )
