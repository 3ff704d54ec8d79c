"""Analytic performance model of Mix-GEMM on the edge SoC.

Predicts cycle counts for arbitrarily large GEMMs by composing:

* the **DSU group schedule** (:func:`repro.core.microengine.group_cycles`)
  -- the per-group multiplier occupancy, derived exactly from the
  datapath, giving each configuration its 3-7 MAC/cycle character;
* the **scalar-core issue stream** of Algorithm 1 (loads, bs.ip, loop
  overhead, bs.get collection, C update), every instruction costing one
  issue slot on the single-issue host;
* the **memory traffic model** (:mod:`repro.sim.memory`) for L2/DRAM
  stalls under the BLIS blocking.

Within one k-group the Source Buffers decouple CPU and engine, so the
slower of the two sets the pace (``max(engine, cpu)``).  The scalar-core
costs are the ISA cost table (:class:`~repro.core.isa.KernelCosts`) the
event engine charges, but the composition is a paper-calibrated
approximation of the engine, not a replay of it: it counts valid
outputs only (edge tiles are not padded), gives a short tail group a
short schedule, and has no pipeline fill/drain intercept.  Its test
against the event-driven :class:`~repro.core.microengine.MicroEngine`
allows 15%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import MixGemmConfig
from repro.core.isa import BS_GET_COST, KernelCosts
from repro.core.microengine import group_cycles

from .memory import TrafficBreakdown, gemm_traffic
from .params import (
    DEFAULT_MEMORY_COSTS,
    INT_ACC_BYTES,
    PAPER_SOC,
    MemoryCosts,
    SocParams,
)


@dataclass(frozen=True)
class PerfResult:
    """Cycle breakdown for one GEMM (or one lowered conv layer)."""

    m: int
    n: int
    k: int
    macs: int
    engine_cycles: float
    cpu_cycles: float
    collection_cycles: float
    memory_stall_cycles: float
    traffic: TrafficBreakdown
    freq_ghz: float

    @property
    def compute_cycles(self) -> float:
        """Issue/engine cycles with buffer overlap applied."""
        return max(self.engine_cycles, self.cpu_cycles) \
            + self.collection_cycles

    @property
    def total_cycles(self) -> float:
        """End-to-end latency in core clock cycles."""
        return self.compute_cycles + self.memory_stall_cycles

    @property
    def macs_per_cycle(self) -> float:
        """Sustained throughput in MACs per clock cycle."""
        return self.macs / self.total_cycles

    @property
    def gops(self) -> float:
        """Throughput in GOPS (2 ops/MAC)."""
        return 2.0 * self.macs_per_cycle * self.freq_ghz

    @property
    def seconds(self) -> float:
        """Wall-clock latency in seconds at ``freq_ghz``."""
        return self.total_cycles / (self.freq_ghz * 1e9)

    def scaled(self, batch: int) -> "PerfResult":
        """Same kernel repeated ``batch`` times (per-image batching)."""
        return PerfResult(
            m=self.m, n=self.n, k=self.k, macs=self.macs * batch,
            engine_cycles=self.engine_cycles * batch,
            cpu_cycles=self.cpu_cycles * batch,
            collection_cycles=self.collection_cycles * batch,
            memory_stall_cycles=self.memory_stall_cycles * batch,
            traffic=self.traffic, freq_ghz=self.freq_ghz,
        )


def combine(results: list[PerfResult],
            freq_ghz: float | None = None) -> PerfResult:
    """Aggregate per-layer results into a whole-network figure.

    Layers execute serially, so each layer's engine/CPU overlap resolves
    *before* aggregation: the combined ``engine_cycles`` carries every
    layer's binding side (``max``) and ``cpu_cycles`` the hidden side,
    keeping ``compute_cycles`` equal to the sum of per-layer compute.
    """
    if not results:
        raise ValueError("nothing to combine")
    freq = freq_ghz if freq_ghz is not None else results[0].freq_ghz
    return PerfResult(
        m=0, n=0, k=0,
        macs=sum(r.macs for r in results),
        engine_cycles=sum(max(r.engine_cycles, r.cpu_cycles)
                          for r in results),
        cpu_cycles=sum(min(r.engine_cycles, r.cpu_cycles)
                       for r in results),
        collection_cycles=sum(r.collection_cycles for r in results),
        memory_stall_cycles=sum(r.memory_stall_cycles for r in results),
        traffic=TrafficBreakdown(
            l2_bytes=sum(r.traffic.l2_bytes for r in results),
            dram_bytes=sum(r.traffic.dram_bytes for r in results),
        ),
        freq_ghz=freq,
    )


class MixGemmPerfModel:
    """Cycle model for Mix-GEMM GEMM calls on a given SoC."""

    def __init__(
        self,
        soc: SocParams = PAPER_SOC,
        *,
        mem_costs: MemoryCosts = DEFAULT_MEMORY_COSTS,
    ) -> None:
        self.soc = soc
        self.mem_costs = mem_costs

    def gemm(self, m: int, n: int, k: int,
             config: MixGemmConfig) -> PerfResult:
        """Predict one GEMM's cycle breakdown."""
        if min(m, n, k) < 1:
            raise ValueError(f"degenerate GEMM {m}x{n}x{k}")
        blk = config.blocking
        lay = config.layout
        costs = KernelCosts()

        ge = lay.group_elements
        full_groups, rem = divmod(k, ge)
        kc_eff = config.kc_elements
        k_blocks = math.ceil(k / kc_eff)

        # Engine occupancy: each output element's inner product drains
        # through the DSU schedule group by group; a short tail group uses
        # a short schedule (the Control Unit's inner-product length is a
        # bs.set parameter).  Edge tiles issue fewer bs.ip via smaller
        # software loop bounds, so occupancy follows the *valid* output
        # count m*n exactly.
        per_pair_engine = full_groups * group_cycles(config)
        if rem:
            per_pair_engine += group_cycles(config, rem)

        # CPU issue stream, amortized per output element: u-vector loads
        # happen once per k-group per tile and are shared by the mr x nr
        # inner products.
        ku_iters = max(lay.kua, lay.kub)
        slots = blk.mr * blk.nr
        cpu_full = (
            costs.load_cost * (lay.kua * blk.mr + lay.kub * blk.nr)
            + costs.kgroup_overhead
            + slots * (ku_iters + costs.inner_loop_overhead)
        )
        per_pair_cpu = full_groups * cpu_full / slots
        if rem:
            wa = math.ceil(rem / lay.elems_a)
            wb = math.ceil(rem / lay.elems_b)
            cpu_rem = (
                costs.load_cost * (wa * blk.mr + wb * blk.nr)
                + costs.kgroup_overhead
                + slots * (max(wa, wb) + costs.inner_loop_overhead)
            )
            per_pair_cpu += cpu_rem / slots

        outputs = m * n
        engine_cycles = outputs * per_pair_engine
        cpu_cycles = outputs * per_pair_cpu

        # Collection + C update: one bs.get + accumulate per output per
        # k-block.
        collection = outputs * k_blocks * (BS_GET_COST
                                           + costs.c_update_cost)

        traffic = gemm_traffic(
            m, n, k,
            a_bytes_per_element=config.bw_a / 8,
            b_bytes_per_element=config.bw_b / 8,
            acc_bytes=INT_ACC_BYTES,
            mc=blk.mc, nc=blk.nc, kc=kc_eff, mr=blk.mr, nr=blk.nr,
            soc=self.soc, costs=self.mem_costs,
            out_bytes_per_element=1.0,  # requantized before leaving
        )
        return PerfResult(
            m=m, n=n, k=k, macs=m * n * k,
            engine_cycles=engine_cycles,
            cpu_cycles=cpu_cycles,
            collection_cycles=collection,
            memory_stall_cycles=traffic.stall_cycles(
                self.mem_costs, self.soc.line_bytes
            ),
            traffic=traffic,
            freq_ghz=self.soc.freq_ghz,
        )

    def conv_layer(self, layer, config: MixGemmConfig,
                   *, batch: int = 1) -> PerfResult:
        """Predict one conv/fc layer lowered to GEMM (per group).

        ``layer`` is a :class:`repro.models.inventory.LayerSpec`; grouped
        convolutions run one GEMM per group.  ``batch > 1`` stacks output
        pixels across images into the GEMM's m dimension (the im2row
        batching of Section II-A), amortizing edge and setup overheads.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        m, k, n = layer.gemm_dims
        per_group = self.gemm(m * batch, n, k, config)
        if layer.groups == 1:
            return per_group
        return per_group.scaled(layer.groups)

    def network(self, inventory, config: MixGemmConfig,
                *, conv_only: bool = True, batch: int = 1) -> PerfResult:
        """Whole-network throughput over a layer inventory.

        ``conv_only=True`` matches Figure 7, which accounts "the execution
        time spent on each convolutional layer".
        """
        layers = inventory.conv_layers if conv_only else inventory.layers
        results = [self.conv_layer(layer, config, batch=batch)
                   for layer in layers]
        return combine(results, self.soc.freq_ghz)
