"""Runtime value-range observation hook (the range sanitizer's tap).

The abstract-interpretation range analyzer (:mod:`repro.analysis.ranges`)
proves static per-layer intervals; its runtime sanitizer cross-checks
them against what the engine actually computes.  The engine and the
compiled plans cannot import the analysis package (the analysis package
imports *them*), so the coupling is inverted through this module -- the
same installable-hook pattern the lock sanitizer uses via
:mod:`repro.core.locks`.

The default state is a ``None`` hook, and :func:`observe_range` is a
single attribute read plus a ``None`` check in that state, so the
inference hot path pays effectively nothing when no sanitizer is
armed.  Installation is process-global and meant for test/diagnostic
sessions, not concurrent production serving.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

#: ``hook(label, kind, values)`` -- ``kind`` is one of ``"act"``
#: (quantized GEMM A-operand codes), ``"acc"`` (post-wrap integer
#: accumulator output) or ``"out"`` (the node's float output tensor).
#: ``act`` and ``acc`` values are always integers, but a compiled plan's
#: fast path may deliver them in a float32/float64 array holding those
#: integers exactly (see :class:`repro.core.fastpath.FastGemmKernel`).
RangeHook = Callable[[str, str, np.ndarray], None]

_hook: Optional[RangeHook] = None


def set_range_hook(hook: Optional[RangeHook]) -> Optional[RangeHook]:
    """Install ``hook`` (or ``None`` to disarm); returns the previous one."""
    global _hook
    previous = _hook
    _hook = hook
    return previous


def observe_range(label: str, kind: str, values: np.ndarray) -> None:
    """Report one tensor to the installed hook; no-op when disarmed."""
    hook = _hook
    if hook is not None:
        hook(label, kind, values)


__all__ = ["RangeHook", "observe_range", "set_range_hook"]
