"""Per-phase cycle report of the Mix-GEMM micro-kernel.

The whole-GEMM cycles, stall split and PMU counters are the fast path's
own engine-timed numbers: :func:`predict_gemm` reads
:func:`repro.core.fastpath.fastpath_timing`, which assembles the blocked
loop from one event-engine run per tile signature and group count
(:func:`repro.core.fastpath.tile_timing`).  Predictions are therefore
exact by construction -- the same tiles the fast backend reports.

What this module adds is the split of those cycles into the phases of
Algorithm 1, each a closed form over the ISA cost table
(:mod:`repro.core.isa`) and the blocked loop geometry:

* *stage* -- per k-group operand staging (``kgroup_overhead`` + one
  ``load_cost`` per u-vector load into the RF);
* *issue* -- per k-group, for each of the ``T = mr * nr`` register-tile
  cells, the inner-loop overhead and ``max(kua, kub)`` single-issue
  ``bs.ip`` instructions (Algorithm 1 lines 5-9);
* *collect* -- ``T`` ``bs.get`` per tile per kc-block;
* *epilogue* -- the ``m * n`` C updates per kc-block.

The engine-reported stalls (buffer-full and ``bs.get``) close the
identity ``cycles = set + stage + issue + collect + epilogue + stalls``.

All quantities are CPU cycles of the modelled in-order core unless a
field name says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import MixGemmConfig
from repro.core.fastpath import (
    fastpath_timing,
    gemm_tile_counts,
    kblock_group_counts,
)
from repro.core.isa import BS_GET_COST, BS_IP_COST, BS_SET_COST, KernelCosts


def tile_stage_cycles(config: MixGemmConfig, costs: KernelCosts) -> int:
    """Operand-staging cycles per k-group: pointer bumps + RF loads."""
    lay = config.layout
    blk = config.blocking
    return (costs.kgroup_overhead
            + costs.load_cost * (lay.kua * blk.mr + lay.kub * blk.nr))


def tile_ip_cycles(config: MixGemmConfig, costs: KernelCosts) -> int:
    """bs.ip issue-loop cycles per k-group (stall-free)."""
    lay = config.layout
    blk = config.blocking
    tile = blk.mr * blk.nr
    ku_iters = max(lay.kua, lay.kub)
    return tile * (costs.inner_loop_overhead + ku_iters * BS_IP_COST)


def tile_collect_cycles(config: MixGemmConfig) -> int:
    """bs.get issue cycles of one tile's collection loop (C excluded)."""
    blk = config.blocking
    return blk.mr * blk.nr * BS_GET_COST


@dataclass(frozen=True)
class CostBreakdown:
    """Predicted whole-GEMM cycles, split by phase, plus counters.

    The phases partition the modelled CPU cycles exactly::

        cycles = set + stage + issue + collect + epilogue
                 + buffer_full_stall + get_stall

    ``engine_busy_cycles`` is informational (it overlaps the CPU
    phases); ``macs_issued`` counts issued MACs including zero-padded
    register-tile edges, matching the PMU, not the algebraic m*n*k.
    """

    m: int
    n: int
    k: int
    config: str
    cycles: int
    set_cycles: int
    stage_cycles: int
    issue_cycles: int
    collect_cycles: int
    epilogue_cycles: int
    buffer_full_stall_cycles: int
    get_stall_cycles: int
    engine_busy_cycles: int
    groups: int
    macs_issued: int
    ip_instructions: int
    get_instructions: int
    set_instructions: int

    @property
    def stall_cycles(self) -> int:
        """Total stall cycles (buffer-full + bs.get drain)."""
        return self.buffer_full_stall_cycles + self.get_stall_cycles

    @property
    def macs_per_cycle(self) -> float:
        """Issued-MAC throughput over the predicted cycles."""
        return self.macs_issued / self.cycles if self.cycles else 0.0

    def phase_identity_holds(self) -> bool:
        """Whether the phase fields partition ``cycles`` exactly."""
        return self.cycles == (
            self.set_cycles + self.stage_cycles + self.issue_cycles
            + self.collect_cycles + self.epilogue_cycles
            + self.buffer_full_stall_cycles + self.get_stall_cycles)

    def as_dict(self) -> dict:
        return {
            "m": self.m, "n": self.n, "k": self.k, "config": self.config,
            "cycles": self.cycles,
            "phases": {
                "set": self.set_cycles,
                "stage": self.stage_cycles,
                "issue": self.issue_cycles,
                "collect": self.collect_cycles,
                "epilogue": self.epilogue_cycles,
                "buffer_full_stall": self.buffer_full_stall_cycles,
                "get_stall": self.get_stall_cycles,
            },
            "engine_busy_cycles": self.engine_busy_cycles,
            "groups": self.groups,
            "macs_issued": self.macs_issued,
            "instructions": {
                "bs.set": self.set_instructions,
                "bs.ip": self.ip_instructions,
                "bs.get": self.get_instructions,
            },
            "macs_per_cycle": self.macs_per_cycle,
        }


def predict_gemm(config: MixGemmConfig, costs: Optional[KernelCosts],
                 m: int, n: int, k: int) -> CostBreakdown:
    """One GEMM's engine-timed cycles and counters, split by phase.

    Cycles, stalls and every PMU counter are
    :func:`~repro.core.fastpath.fastpath_timing` (memoized per shape,
    one engine run per tile signature and group count); the phase
    split adds the closed forms above over the same loop geometry.
    """
    if costs is None:
        costs = KernelCosts()
    timing = fastpath_timing(config, costs, m, n, k)
    row_tiles, col_tiles = gemm_tile_counts(config, m, n)
    tiles = row_tiles * col_tiles
    kblocks = kblock_group_counts(config, k)
    tile_groups = tiles * sum(kblocks)
    return CostBreakdown(
        m=m, n=n, k=k, config=config.name,
        cycles=timing.cycles,
        set_cycles=BS_SET_COST,
        stage_cycles=tile_groups * tile_stage_cycles(config, costs),
        issue_cycles=tile_groups * tile_ip_cycles(config, costs),
        collect_cycles=tiles * len(kblocks) * tile_collect_cycles(config),
        epilogue_cycles=len(kblocks) * m * n * costs.c_update_cost,
        buffer_full_stall_cycles=timing.buffer_full_stall_cycles,
        get_stall_cycles=timing.get_stall_cycles,
        engine_busy_cycles=timing.engine_busy_cycles,
        groups=timing.groups,
        macs_issued=timing.macs,
        ip_instructions=timing.ip_instructions,
        get_instructions=timing.get_instructions,
        set_instructions=1,
    )
