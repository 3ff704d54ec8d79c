"""Analytic memory-traffic model for blocked GEMM.

Closed-form byte counts for the BLIS loop structure of Algorithm 1 (and of
the scalar baselines, which share it).  The derivation is the standard
blocked-GEMM analysis:

* **B** is packed once per (jc, pc) panel and stays L2-resident across the
  ``ic`` loop -> read from DRAM once in total;
* **A** is re-read from DRAM for every ``jc`` iteration -> ``ceil(n/nc)``
  full passes;
* the **A u-panel** is streamed L2->L1 for every ``jr`` tile ->
  ``ceil(n/nr)`` passes over A;
* the **B u-panel** is loaded L2->L1 once per (jr, ic) -> ``ceil(m/mc)``
  passes over B;
* **C** is read+written once per k-block; that traffic hits L2 when an
  ``mc x nc`` accumulator block fits there, DRAM otherwise.

Working-set gating: when a whole operand fits a level (with the
utilization margin of :class:`~repro.sim.params.MemoryCosts`), repeat
passes hit that level instead of the one below -- this is what makes the
Figure 6 curves flat for cache-resident sizes and what drives the
cache-shrinking study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import MemoryCosts, SocParams


@dataclass(frozen=True)
class TrafficBreakdown:
    """Bytes moved per level for one GEMM call."""

    l2_bytes: float
    dram_bytes: float

    def stall_cycles(self, costs: MemoryCosts,
                     line_bytes: int = 64) -> float:
        return (
            self.l2_bytes / line_bytes * costs.l2_line_stall
            + self.dram_bytes / line_bytes * costs.dram_line_stall
        )


def gemm_traffic(
    m: int,
    n: int,
    k: int,
    *,
    a_bytes_per_element: float,
    b_bytes_per_element: float,
    acc_bytes: int,
    mc: int,
    nc: int,
    kc: int,
    mr: int,
    nr: int,
    soc: SocParams,
    costs: MemoryCosts,
    out_bytes_per_element: float | None = None,
) -> TrafficBreakdown:
    """Bytes moved from L2 and DRAM for one blocked GEMM.

    ``out_bytes_per_element`` is the size of the *final* output written to
    DRAM -- 1 byte for the quantized inference pipeline (results are
    requantized before leaving the fused layer), ``acc_bytes`` otherwise.
    """
    a_total = m * k * a_bytes_per_element
    b_total = k * n * b_bytes_per_element
    c_total = m * n * acc_bytes
    l1_cap = soc.l1_bytes * costs.cache_utilization
    l2_cap = soc.l2_bytes * costs.cache_utilization

    n_passes_a_dram = math.ceil(n / nc)
    k_blocks = math.ceil(k / kc)

    # --- DRAM traffic -------------------------------------------------------
    if a_total + b_total <= l2_cap:
        # Everything stays L2-resident after the first read.
        dram = a_total + b_total
    else:
        dram = a_total * n_passes_a_dram + b_total
    # C: accumulators stream per k-block; when an mc x nc block fits L2 the
    # round trips stay on-chip and only the (requantized) result leaves.
    if out_bytes_per_element is None:
        out_bytes_per_element = acc_bytes
    # The accumulator block shares the L2 with the packed A panel.
    c_block = min(mc, m) * min(nc, n) * acc_bytes
    a_panel = min(mc, m) * min(kc, k) * a_bytes_per_element
    if c_block + a_panel <= l2_cap:
        dram += m * n * out_bytes_per_element
        c_l2 = 2 * c_total * k_blocks
    else:
        dram += 2 * c_total * k_blocks
        c_l2 = 0.0

    # --- L2 -> L1 traffic ------------------------------------------------------
    if a_total + b_total <= l1_cap:
        l2 = a_total + b_total         # fully L1-resident after first read
    else:
        a_passes_l1 = math.ceil(n / nr)
        b_passes_l1 = max(1, math.ceil(m / mc))
        l2 = a_total * a_passes_l1 + b_total * b_passes_l1
    l2 += c_l2
    return TrafficBreakdown(l2_bytes=l2, dram_bytes=dram)
