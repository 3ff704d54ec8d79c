"""Kept importable for the benchmark's set-up probe; nothing else.

``perfbench/`` imports this module on every set-up probe and, when
tracing, spans :func:`calibrate_tile` to report
``cost.calibrate_calls`` / ``cost.calibrate_s``.  The fitted per-tile
law that used to live here is gone: :mod:`repro.analysis.cost` reads the
engine-timed tiles of :func:`repro.core.fastpath.tile_timing` directly,
so nothing in the package calls this function and both metrics read 0.
The module can go once the benchmark drops that import.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import MixGemmConfig
from repro.core.fastpath import MicroKernelTiming, tile_timing
from repro.core.isa import KernelCosts


def calibrate_tile(config: MixGemmConfig,
                   costs: Optional[KernelCosts] = None,
                   ) -> MicroKernelTiming:
    """The engine-timed one-group micro-kernel of ``config``."""
    if costs is None:
        costs = KernelCosts()
    return tile_timing(config, costs, 1)


__all__ = ["calibrate_tile"]
