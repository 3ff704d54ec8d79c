"""Calibration of the closed-form tile model against engine probes.

The analytic model (:mod:`.model`) pins the steady-state slope of the
per-tile cycle law ``cpu_cycles(g) = S * g + K`` exactly -- ``S =
max(issue, execute)`` follows from the micro-kernel structure -- but
two small quantities are *observed*, not derived:

* the pipeline fill/drain intercept ``K`` (how the first group's
  staging overlaps the engine warming up), and
* the split of the stall total between the two PMU stall counters
  (buffer-full vs. ``bs.get``): the total is forced by the identity
  ``cpu = issue + collect + stalls``, but which counter absorbs a
  stall cycle depends on where in the pipeline the backpressure
  surfaces, and that split only becomes affine after a few groups.

Calibration therefore runs the instrumented engine
(:func:`repro.core.fastpath.tile_timing`, the fast path's own timing
source) on a handful of small probe group counts, fits ``K`` and the
stall split, then *verifies* the fit on disjoint holdout group counts.
Only a calibration whose holdouts reproduce the engine bit for bit is
marked ``exact``; one that is not is what COST-MODEL-DRIFT reports.

Fitted calibrations live in an in-process memo keyed by the digest of
the ISA cost table plus the tile signature: one calibration per
distinct tile law per process, nothing on disk.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.config import MixGemmConfig
from repro.core.fastpath import MicroKernelTiming, tile_timing
from repro.core.isa import BS_GET_COST, ISA_COST_TABLE, KernelCosts

from .model import (
    tile_engine_cycles,
    tile_issue_cycles,
    tile_slope,
)

#: Group counts the engine is probed at during calibration.  Small on
#: purpose: the probes dominate calibration cost, and the law is
#: affine from g=1, so a short prefix pins the fit.
PROBE_GROUPS = (1, 2, 3, 4, 5, 6)

#: Disjoint group counts the fitted model must reproduce exactly for
#: the calibration to earn ``exact=True``.  33 is far outside the
#: probe range so a stall-split transition past the probes is caught.
HOLDOUT_GROUPS = (8, 12, 33)


def _digest(fields: dict) -> str:
    payload = json.dumps(fields, sort_keys=True,
                         separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()[:20]


def cost_table_digest(costs: Optional[KernelCosts] = None) -> str:
    """Content hash of everything the model's constants derive from.

    Covers the :class:`~repro.core.isa.KernelCosts` fields and the
    bs.* issue-cost table; any edit to either changes the digest, so a
    memoized calibration stops matching and recalibration happens on
    the next lookup.
    """
    if costs is None:
        costs = KernelCosts()
    return _digest({
        "kernel_costs": dataclasses.asdict(costs),
        "isa_cost_table": dict(ISA_COST_TABLE),
    })


def tile_signature(config: MixGemmConfig) -> dict:
    """Everything the per-tile timing depends on, as a plain dict.

    Deliberately excludes the cache blocking (mc/nc/kc), the AccMem
    width and the backend: the micro-kernel times one register tile of
    ``g`` full groups, so only the operand formats, the u-vector
    geometry, the engine datapath shape and the register blocking
    matter.  Configs differing only in excluded axes share one
    calibration.
    """
    lay = config.layout
    blk = config.blocking
    return {
        "bw_a": config.bw_a, "bw_b": config.bw_b,
        "signed_a": config.signed_a, "signed_b": config.signed_b,
        "word_bits": config.word_bits, "mul_width": config.mul_width,
        "source_buffer_depth": config.source_buffer_depth,
        "kua": lay.kua, "kub": lay.kub,
        "mr": blk.mr, "nr": blk.nr,
    }


@dataclass(frozen=True)
class TileCalibration:
    """One fitted per-tile timing law.

    ``slope``/``intercept`` give ``cpu_cycles(g)``;
    ``buffer_slope``/``buffer_intercept`` give the buffer-full stall
    share in the extrapolated regime (probed group counts replay their
    observed values exactly); the ``bs.get`` stall share is forced by
    the cycle identity.  ``exact`` records whether every holdout probe
    reproduced the engine bit for bit.
    """

    slope: int
    intercept: int
    issue_cycles: int
    engine_cycles: int
    tile_cells: int
    ku_iters: int
    group_elements: int
    probes: tuple[tuple[int, int, int], ...]   # (g, cpu, buffer_full)
    buffer_slope: int
    buffer_intercept: int
    exact: bool

    def timing(self, n_groups: int) -> MicroKernelTiming:
        """Predicted per-tile deltas for a ``n_groups``-group tile."""
        g = n_groups
        cpu = self.slope * g + self.intercept
        buffer_full = None
        for pg, pcpu, pbuf in self.probes:
            if pg == g:
                cpu, buffer_full = pcpu, pbuf
                break
        if buffer_full is None:
            buffer_full = max(0, self.buffer_slope * g
                              + self.buffer_intercept)
        collect = self.tile_cells * BS_GET_COST
        get_stall = max(0, cpu - self.issue_cycles * g - collect
                        - buffer_full)
        return MicroKernelTiming(
            cpu_cycles=cpu,
            buffer_full_stall_cycles=buffer_full,
            get_stall_cycles=get_stall,
            engine_busy_cycles=self.engine_cycles * g,
            groups=self.tile_cells * g,
            macs=self.tile_cells * g * self.group_elements,
            ip_instructions=self.tile_cells * g * self.ku_iters,
            get_instructions=self.tile_cells,
        )


def calibrate_tile(config: MixGemmConfig,
                   costs: Optional[KernelCosts] = None,
                   ) -> TileCalibration:
    """Probe the engine, fit the affine law, verify on holdouts.

    The slope is taken from the analytic model first; if the probes
    contradict it (which would mean the micro-kernel structure drifted
    from what :mod:`.model` encodes) the slope is re-fitted from the
    last two probes and the calibration cannot be ``exact`` -- that is
    precisely the situation COST-MODEL-DRIFT reports.
    """
    if costs is None:
        costs = KernelCosts()
    lay = config.layout
    blk = config.blocking
    probe_config = dataclasses.replace(config, backend="event")

    observed = {g: tile_timing(probe_config, costs, g)
                for g in PROBE_GROUPS}
    slope = tile_slope(config, costs)
    intercept = observed[PROBE_GROUPS[0]].cpu_cycles - slope
    affine = all(t.cpu_cycles == slope * g + intercept
                 for g, t in observed.items())
    if not affine:
        g_hi, g_lo = PROBE_GROUPS[-1], PROBE_GROUPS[-2]
        slope = ((observed[g_hi].cpu_cycles - observed[g_lo].cpu_cycles)
                 // (g_hi - g_lo))
        intercept = observed[g_hi].cpu_cycles - slope * g_hi

    g_hi, g_lo = PROBE_GROUPS[-1], PROBE_GROUPS[-2]
    buf_hi = observed[g_hi].buffer_full_stall_cycles
    buf_lo = observed[g_lo].buffer_full_stall_cycles
    buffer_slope = (buf_hi - buf_lo) // (g_hi - g_lo)
    buffer_intercept = buf_hi - buffer_slope * g_hi

    calibration = TileCalibration(
        slope=slope,
        intercept=intercept,
        issue_cycles=tile_issue_cycles(config, costs),
        engine_cycles=tile_engine_cycles(config),
        tile_cells=blk.mr * blk.nr,
        ku_iters=max(lay.kua, lay.kub),
        group_elements=lay.group_elements,
        probes=tuple(
            (g, t.cpu_cycles, t.buffer_full_stall_cycles)
            for g, t in sorted(observed.items())),
        buffer_slope=buffer_slope,
        buffer_intercept=buffer_intercept,
        exact=False,
    )
    exact = affine and all(
        calibration.timing(g) == tile_timing(probe_config, costs, g)
        for g in HOLDOUT_GROUPS)
    return dataclasses.replace(calibration, exact=exact)


#: In-process memo over (cost digest, signature digest): one
#: calibration per distinct tile law per process.
_MEMO: dict[tuple[str, str], TileCalibration] = {}


def clear_calibration_memo() -> None:
    """Drop the in-process memo (tests forcing recalibration)."""
    _MEMO.clear()


def get_tile_calibration(config: MixGemmConfig,
                         costs: Optional[KernelCosts] = None,
                         ) -> TileCalibration:
    """Memoized calibration lookup: memo hit, else :func:`calibrate_tile`."""
    if costs is None:
        costs = KernelCosts()
    memo_key = (cost_table_digest(costs), _digest(tile_signature(config)))
    calibration = _MEMO.get(memo_key)
    if calibration is None:
        calibration = calibrate_tile(config, costs)
        _MEMO[memo_key] = calibration
    return calibration


def calibrated_tile_fn(config: MixGemmConfig,
                       costs: Optional[KernelCosts] = None,
                       ) -> Callable[[int], MicroKernelTiming]:
    """Bind ``(config, costs)`` into a per-tile timing function."""
    return get_tile_calibration(config, costs).timing


__all__ = [
    "HOLDOUT_GROUPS",
    "PROBE_GROUPS",
    "TileCalibration",
    "calibrate_tile",
    "calibrated_tile_fn",
    "clear_calibration_memo",
    "cost_table_digest",
    "get_tile_calibration",
    "tile_signature",
]
