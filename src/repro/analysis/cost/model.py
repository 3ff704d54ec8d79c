"""Closed-form per-phase cycle model of the Mix-GEMM micro-kernel.

The event engine's micro-kernel timing is a pure function of
``(config, costs, n_groups)`` (data independence + translation
invariance, see :mod:`repro.core.fastpath`), and its structure makes the
per-tile CPU cycles **exactly affine** in the group count ``g``::

    cpu_cycles(g) = S * g + K        for every g >= 1

with the steady-state slope ``S = max(C, E)`` fully analytic:

* ``C`` -- CPU issue cycles per k-group: the per-group operand staging
  (``kgroup_overhead`` + one ``load_cost`` per u-vector load into the
  RF) plus, for each of the ``T = mr * nr`` register-tile cells, the
  inner-loop overhead and ``max(kua, kub)`` single-issue ``bs.ip``
  instructions (Algorithm 1 lines 5-9);
* ``E`` -- engine execution cycles per k-group: ``T`` groups through
  the DSU/multiplier pipeline at
  :func:`~repro.core.microengine.group_cycles` each (the Eq. 5 / Fig. 4
  group structure).

When the engine is the bottleneck (``E > C``) the micro-kernel is
drained at the engine rate and the surplus surfaces as buffer-full /
``bs.get`` stalls; when the CPU is the bottleneck the engine hides
entirely.  Either way the *total* is ``max`` -- only the pipeline
fill/drain intercept ``K`` and the split of the stall total between the
two PMU stall counters need calibration against instrumented engine
probes (:mod:`repro.analysis.cost.calibrate`).

Instruction and MAC counters are exact closed forms (no calibration):
per tile of ``g`` groups, ``g*T*max(kua,kub)`` bs.ip, ``T`` bs.get,
``g*T`` groups, ``g*T*group_elements`` issued MACs.

All quantities are CPU cycles of the modelled in-order core unless a
field name says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.config import MixGemmConfig
from repro.core.fastpath import gemm_tile_counts, kblock_group_counts
from repro.core.isa import BS_GET_COST, BS_IP_COST, BS_SET_COST, KernelCosts
from repro.core.microengine import group_cycles


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


def tile_issue_cycles(config: MixGemmConfig, costs: KernelCosts) -> int:
    """``C``: total stall-free CPU issue cycles per k-group."""
    return tile_stage_cycles(config, costs) + tile_ip_cycles(config, costs)


def tile_engine_cycles(config: MixGemmConfig) -> int:
    """``E``: engine busy cycles per k-group (``T`` DSU group walks)."""
    blk = config.blocking
    return blk.mr * blk.nr * group_cycles(config)


def tile_slope(config: MixGemmConfig, costs: KernelCosts) -> int:
    """``S = max(C, E)``: steady-state CPU cycles per k-group."""
    return max(tile_issue_cycles(config, costs),
               tile_engine_cycles(config))


def tile_collect_cycles(config: MixGemmConfig) -> int:
    """bs.get issue cycles of one tile's collection loop (C excluded)."""
    blk = config.blocking
    return blk.mr * blk.nr * BS_GET_COST


#: Signature of a per-tile timing function: ``f(n_groups)`` returning
#: an object with the :class:`~repro.core.fastpath.MicroKernelTiming`
#: fields.  :mod:`.calibrate` provides the calibrated closed form; the
#: engine run :func:`repro.core.fastpath.tile_timing` (bound to a
#: config and costs) is the ground truth it is fitted against.
TileFn = Callable[[int], object]


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
                 m: int, n: int, k: int, *,
                 tile_fn: Optional[TileFn] = None) -> CostBreakdown:
    """Predict one GEMM's cycles/counters without touching the engine.

    Mirrors the blocked assembly of
    :func:`~repro.core.fastpath.fastpath_timing` over the same loop
    geometry -- one ``bs.set``, then per kc-block ``tiles * tile(g)``
    plus the ``m * n`` C-update epilogue -- but sources the per-tile
    timing from the calibrated closed form instead of an engine run.
    ``tile_fn`` overrides the per-tile timing (the differential tests
    inject the engine reference to bound the model error); by default
    the calibrated predictor from :mod:`.calibrate` is used, which
    probes the engine at most once per tile signature and cost-table
    digest per process.
    """
    if costs is None:
        costs = KernelCosts()
    if tile_fn is None:
        from .calibrate import calibrated_tile_fn

        tile_fn = calibrated_tile_fn(config, costs)
    row_tiles, col_tiles = gemm_tile_counts(config, m, n)
    tiles = row_tiles * col_tiles
    stage = tile_stage_cycles(config, costs)
    ip = tile_ip_cycles(config, costs)
    collect = tile_collect_cycles(config)
    kblocks = kblock_group_counts(config, k)

    cycles = BS_SET_COST
    stage_total = issue_total = collect_total = epilogue_total = 0
    stalls_full = stalls_get = busy = groups = macs = ips = gets = 0
    timing_by_g: dict[int, object] = {}
    for n_groups in kblocks:
        tile = timing_by_g.get(n_groups)
        if tile is None:
            tile = tile_fn(n_groups)
            timing_by_g[n_groups] = tile
        cycles += (tiles * tile.cpu_cycles
                   + m * n * costs.c_update_cost)
        stage_total += tiles * n_groups * stage
        issue_total += tiles * n_groups * ip
        collect_total += tiles * collect
        epilogue_total += m * n * costs.c_update_cost
        stalls_full += tiles * tile.buffer_full_stall_cycles
        stalls_get += tiles * tile.get_stall_cycles
        busy += tiles * tile.engine_busy_cycles
        groups += tiles * tile.groups
        macs += tiles * tile.macs
        ips += tiles * tile.ip_instructions
        gets += tiles * tile.get_instructions
    return CostBreakdown(
        m=m, n=n, k=k, config=config.name,
        cycles=cycles,
        set_cycles=BS_SET_COST,
        stage_cycles=stage_total,
        issue_cycles=issue_total,
        collect_cycles=collect_total,
        epilogue_cycles=epilogue_total,
        buffer_full_stall_cycles=stalls_full,
        get_stall_cycles=stalls_get,
        engine_busy_cycles=busy,
        groups=groups,
        macs_issued=macs,
        ip_instructions=ips,
        get_instructions=gets,
        set_instructions=1,
    )
