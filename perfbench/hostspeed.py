"""Host-speed probes: a fixed kernel that does not touch the program, and
the hypervisor's stolen-time counter.

On a shared host the vCPUs change speed by up to ~1.8x over minutes as
other tenants come and go, and CPU-bound operations slow down in step
with this kernel.  The closed-loop workloads time it between their
operations and rescale each slice of their window to
:data:`REFERENCE_S` (:func:`rescaled`), so two runs compare the program,
not the host's load at the time.

The open-loop serving workload is timed in one-second slices instead:
its tail latency rises with the CPU time the hypervisor gives to other
guests (``steal`` in ``/proc/stat``), and
:func:`steal_free_quantile` reads its quantiles at zero stolen time.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: Kernel time on the reference host (2-vCPU Xeon VM) in a quiet
#: period.  Rescaled times read as if the host had run at this speed.
REFERENCE_S = 2.5e-3

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 576))
_B = _rng.standard_normal((576, 64))
_X = _rng.standard_normal((8, 16, 16, 16))
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
#: Fewest operations a slice needs for its quantiles to take part.
MIN_SLICE_OPS = 50
#: Fewest such slices a steal fit needs; with fewer, the pooled
#: quantile is reported.
MIN_SLICES = 5


def kernel_seconds() -> float:
    """Wall time of the three kinds of work the workloads spend their
    time in: an interpreter loop, small float matmuls, and
    quantize-style elementwise passes over an activation-sized array."""
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i
    for _ in range(10):
        _A @ _B
    for _ in range(10):
        q = np.clip(np.round(_X * 7.3), -128, 127).astype(np.int64)
        (q * 3).astype(np.float64)
    return time.perf_counter() - start


def rescaled(slices) -> list[float]:
    """The latencies of ``slices``, each a (median kernel seconds,
    latencies) pair, as if their slice had run at :data:`REFERENCE_S`."""
    return [lat * REFERENCE_S / kernel
            for kernel, lats in slices for lat in lats]


def stolen_seconds() -> float:
    """CPU seconds the hypervisor has given other guests since boot,
    summed over this VM's CPUs; 0.0 where the kernel does not say."""
    try:
        with open("/proc/stat") as stat:
            return int(stat.readline().split()[8]) * _TICK_S
    except (OSError, IndexError, ValueError):
        return 0.0


def steal_free_quantile(slices, q: float) -> float:
    """Quantile ``q`` of the latencies of ``slices`` at zero stolen time.

    ``slices`` holds (stolen CPU seconds per second, latencies) for each
    slice of a window.  Each slice's quantile is fitted by least squares
    against its steal, and the fit is read at zero steal, kept between
    the best slice's quantile and the pooled quantile of all slices.
    With too few slices, or the same steal in every one, the pooled
    quantile is returned.
    """
    pooled = [lat for _, lats in slices for lat in lats]
    whole = float(np.percentile(pooled, q * 100.0)) if pooled else 0.0
    usable = [(steal, lats) for steal, lats in slices
              if len(lats) >= MIN_SLICE_OPS]
    steal = np.array([s for s, _ in usable])
    if len(usable) < MIN_SLICES or np.ptp(steal) == 0.0:
        return whole
    per_slice = np.array([np.percentile(lats, q * 100.0)
                          for _, lats in usable])
    _, at_zero = np.polyfit(steal, per_slice, 1)
    return float(np.clip(at_zero, per_slice.min(), whole))
