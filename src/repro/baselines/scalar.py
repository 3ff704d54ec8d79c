"""Baseline GEMM timing models: BLIS DGEMM, int8 BLIS, OpenBLAS, GEMMLowp.

Four comparators appear in the paper's evaluation:

* **BLIS DGEMM** on the same RV64 SoC -- the Figure 6 denominator;
* **BLIS int8** on the same SoC -- shows that quantization without ISA
  support "only reaches an average 2.5x improvement";
* **OpenBLAS FP32** on the SiFive U740 (dual-issue, 1.2 GHz) -- the
  Figure 7 / Table III baseline (~0.9 GOPS on every CNN);
* **GEMMLowp int8** on the Arm Cortex-A53 with NEON -- the optimized
  software library comparison (~4.7-5.8 GOPS, 8-bit only).

All share the blocked-GEMM structure, so one parametric model covers them:
a register-tiled micro-kernel on an in-order core (optionally dual-issue,
optionally SIMD) plus the analytic memory-traffic model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sim.memory import gemm_traffic
from repro.sim.params import (
    DEFAULT_MEMORY_COSTS,
    DEFAULT_SCALAR_COSTS,
    FP_ACC_BYTES,
    PAPER_SOC,
    MemoryCosts,
    ScalarCosts,
    SocParams,
)
from repro.sim.perf import PerfResult, combine


@dataclass(frozen=True)
class BaselineKernel:
    """One baseline's micro-kernel character."""

    name: str
    element_bytes: float         # operand storage size
    acc_bytes: int               # accumulator size
    load_cost: float             # per operand load (issue + exposed latency)
    mac_cost: float              # per scalar MAC (or per SIMD op)
    kstep_overhead: float
    c_update: float
    issue_width: float = 1.0     # >1 for dual-issue hosts
    simd_lanes: int = 1          # elements per load/MAC instruction
    out_bytes: float | None = None  # final output element size (DRAM)
    mr: int = 4
    nr: int = 4
    mc: int = 256
    nc: int = 256
    kc: int = 256


def blis_dgemm_kernel(costs: ScalarCosts = DEFAULT_SCALAR_COSTS
                      ) -> BaselineKernel:
    """The 64-bit BLIS DGEMM the paper uses as its Figure 6 baseline."""
    return BaselineKernel(
        name="blis-dgemm-fp64",
        element_bytes=8.0,
        acc_bytes=FP_ACC_BYTES,
        load_cost=costs.fp_load,
        mac_cost=costs.fp_mac,
        kstep_overhead=costs.fp_kstep_overhead,
        c_update=costs.c_update,
    )


def blis_int8_kernel(costs: ScalarCosts = DEFAULT_SCALAR_COSTS
                     ) -> BaselineKernel:
    """BLIS re-typed to int8 on the scalar ISA (no sub-word SIMD).

    Operands shrink 8x in memory, but each element still needs its own
    load/mul/add on a scalar RV64 core -- the paper's point about why
    quantization alone "is not sufficient to guarantee high benefits".
    """
    return BaselineKernel(
        name="blis-int8",
        element_bytes=1.0,
        acc_bytes=4,
        out_bytes=1.0,
        load_cost=costs.int_load,
        mac_cost=costs.int_mac,
        kstep_overhead=costs.int_kstep_overhead,
        c_update=costs.c_update,
    )


def openblas_fp32_u740_kernel() -> BaselineKernel:
    """OpenBLAS SGEMM on the SiFive U740 (dual-issue in-order, 1.2 GHz).

    Calibrated to the ~0.9 GOPS the paper measures on every CNN
    (Table III baseline row).
    """
    return BaselineKernel(
        name="openblas-fp32-u740",
        element_bytes=4.0,
        acc_bytes=4,
        load_cost=3.0,
        mac_cost=2.0,
        kstep_overhead=3.0,
        c_update=3.0,
        issue_width=1.35,  # dual-issue, imperfect pairing
    )


def gemmlowp_a53_kernel() -> BaselineKernel:
    """GEMMLowp int8 on the Cortex-A53 with NEON (Table III row [33]).

    NEON processes 8-16 byte lanes per instruction; the effective rate is
    calibrated to the published 4.7-5.8 GOPS range at 1.2 GHz.
    """
    return BaselineKernel(
        name="gemmlowp-int8-a53",
        element_bytes=1.0,
        acc_bytes=4,
        out_bytes=1.0,
        load_cost=1.0,
        mac_cost=4.4,      # widening mul + pairwise adds on 64-bit NEON
        kstep_overhead=4.0,
        c_update=3.0,
        issue_width=1.35,
        simd_lanes=8,
        mr=8, nr=8,
    )


class ScalarGemmModel:
    """Cycle model for register-tiled scalar/SIMD GEMM baselines."""

    def __init__(
        self,
        kernel: BaselineKernel,
        soc: SocParams = PAPER_SOC,
        *,
        mem_costs: MemoryCosts = DEFAULT_MEMORY_COSTS,
    ) -> None:
        self.kernel = kernel
        self.soc = soc
        self.mem_costs = mem_costs

    def gemm(self, m: int, n: int, k: int) -> PerfResult:
        ker = self.kernel
        # One k-step covers `simd_lanes` k elements: each register-tile
        # accumulator takes one (SIMD) MAC instruction per step, and each
        # operand row/column one (vector) load.  Edge tiles run smaller
        # loop bounds, so issue work tracks the valid output count (the
        # same convention as the Mix-GEMM model, for fairness).
        k_steps = math.ceil(k / ker.simd_lanes)
        slots = ker.mr * ker.nr
        per_step_per_pair = (
            (ker.mr + ker.nr) * ker.load_cost / slots
            + ker.mac_cost
            + ker.kstep_overhead / slots
        ) / ker.issue_width
        outputs = m * n
        compute = outputs * k_steps * per_step_per_pair
        k_blocks = math.ceil(k / ker.kc)
        collection = outputs * k_blocks * ker.c_update / ker.issue_width

        traffic = gemm_traffic(
            m, n, k,
            a_bytes_per_element=ker.element_bytes,
            b_bytes_per_element=ker.element_bytes,
            acc_bytes=ker.acc_bytes,
            mc=ker.mc, nc=ker.nc, kc=ker.kc, mr=ker.mr, nr=ker.nr,
            soc=self.soc, costs=self.mem_costs,
            out_bytes_per_element=ker.out_bytes,
        )
        return PerfResult(
            m=m, n=n, k=k, macs=m * n * k,
            engine_cycles=0.0,
            cpu_cycles=compute,
            collection_cycles=collection,
            memory_stall_cycles=traffic.stall_cycles(
                self.mem_costs, self.soc.line_bytes
            ),
            traffic=traffic,
            freq_ghz=self.soc.freq_ghz,
        )

    def conv_layer(self, layer) -> PerfResult:
        m, k, n = layer.gemm_dims
        per_group = self.gemm(m, n, k)
        if layer.groups == 1:
            return per_group
        return per_group.scaled(layer.groups)

    def network(self, inventory, *, conv_only: bool = True) -> PerfResult:
        layers = inventory.conv_layers if conv_only else inventory.layers
        return combine([self.conv_layer(l) for l in layers],
                       self.soc.freq_ghz)
