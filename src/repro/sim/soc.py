"""SoC-level composition: performance + area + energy + scalability.

Ties the individual models together into the evaluated system (Figure 8):
the RV64 core with its u-engine, the cache hierarchy, and the derived
figures the paper reports at SoC level -- including the Section IV-B
cache-shrinking study.  The Section III-B multi-core / wider-SIMD
projection lives in :mod:`repro.sim.scalability`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import MixGemmConfig

from .area import SocArea, UEngineArea
from .dse import optimal_blocking
from .energy import EnergyModel, EnergyResult
from .params import PAPER_SOC, SocParams
from .perf import MixGemmPerfModel, PerfResult


@dataclass
class MixGemmSoc:
    """The full evaluated system: one place to ask any paper question."""

    params: SocParams = PAPER_SOC
    adapt_blocking: bool = True
    perf: MixGemmPerfModel = field(init=False)
    energy: EnergyModel = field(init=False)
    area: SocArea = field(init=False)

    def __post_init__(self) -> None:
        self.perf = MixGemmPerfModel(self.params)
        self.energy = EnergyModel()
        self.area = SocArea(
            l1d_kb=self.params.l1_bytes // 1024,
            l2_kb=self.params.l2_bytes // 1024,
        )

    def _configured(self, config: MixGemmConfig) -> MixGemmConfig:
        """Re-block a configuration for this SoC's cache sizes."""
        if not self.adapt_blocking:
            return config
        blocking = optimal_blocking(self.params).blocking
        from dataclasses import replace
        return replace(config, blocking=blocking)

    def gemm(self, m: int, n: int, k: int,
             config: MixGemmConfig) -> PerfResult:
        return self.perf.gemm(m, n, k, self._configured(config))

    def network(self, inventory, config: MixGemmConfig) -> PerfResult:
        return self.perf.network(inventory, self._configured(config))

    def network_efficiency(self, inventory,
                           config: MixGemmConfig) -> EnergyResult:
        cfg = self._configured(config)
        return self.energy.from_perf(
            self.perf.network(inventory, cfg), cfg
        )

    @property
    def uengine_area_overhead(self) -> float:
        """u-engine share of SoC logic area (paper: 1%)."""
        return UEngineArea().soc_overhead()


def cache_sensitivity(
    sizes: list[tuple[int, int]],
    workload: list[tuple[int, int, int]],
    configs: list[MixGemmConfig],
) -> dict[tuple[int, int], float]:
    """Average slowdown vs the default SoC for reduced cache sizes.

    Reproduces the Section IV-B exploration: the paper reports 5.2% for
    L1 64->16 KB, 7% for L2 512->64 KB, and 11.8% for both, on the square
    GEMM benchmark across all supported data sizes.
    """
    reference = MixGemmSoc(PAPER_SOC)
    ref_cycles = {
        (dims, cfg.name): reference.gemm(*dims, cfg).total_cycles
        for dims in workload for cfg in configs
    }
    out: dict[tuple[int, int], float] = {}
    for l1, l2 in sizes:
        soc = MixGemmSoc(PAPER_SOC.with_caches(l1, l2))
        ratios = []
        for dims in workload:
            for cfg in configs:
                cycles = soc.gemm(*dims, cfg).total_cycles
                ratios.append(cycles / ref_cycles[(dims, cfg.name)])
        out[(l1, l2)] = sum(ratios) / len(ratios) - 1.0
    return out
