"""Multi-core Mix-GEMM (paper Section III-B scalability).

"The performance benefits of Mix-GEMM also apply to processors hosting
multiple cores.  Indeed, our BLIS-based library can easily enable
multi-threading support [73] while retaining performance-per-core close
to the single-threaded implementation [67], and a u-engine can be
instantiated on every processor core."

This module implements that claim functionally: the many-threaded BLIS
strategy parallelizes the ``jc``/``jr`` loops -- each core owns a slice of
the N dimension, with its own u-engine, its own AccMem, and a barrier at
the end.  Results are bit-exact (each core runs the ordinary
:class:`~repro.core.gemm.MixGemm` on its slice) and the timing is the
slowest core plus a synchronization cost.

Whenever a call splits N across more than one core, the per-core
slices also *run* on real threads: each core's executor is driven from
a worker thread, which overlaps the numpy portions of the slices and --
more importantly -- exercises the shared
:class:`~repro.core.packcache.PackingCache` under genuine contention,
which the concurrency stress tests rely on.  Per-core executors are
stateful (each owns a ``MicroEngine``), so one ``gemm()`` call owns
all of them for its duration: calls are serialized on
``_gemm_lock`` -- a discipline annotated for, and enforced by,
``repro check --concurrency``.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .backend import AUTO
from .binseg import BinSegError
from .config import MixGemmConfig
from .gemm import GemmResult, KernelCosts, MixGemm
from .locks import make_lock
from .microengine import PmuCounters
from .packcache import PackingCache

#: Barrier cost per synchronization point (cycles): a sense-reversing
#: barrier over a snoopy bus at edge-SoC scale.  An SoC interconnect
#: parameter, not a u-kernel issue cost, so it stays outside the ISA
#: cost table.
DEFAULT_BARRIER_CYCLES = 200  # repro: noqa REP013


@dataclass
class ParallelGemmResult:
    """Combined outcome of a multi-core GEMM."""

    c: np.ndarray
    cycles: int                     # slowest core + barrier
    macs: int
    per_core: list[GemmResult] = field(default_factory=list)

    @property
    def cores(self) -> int:
        return len(self.per_core)

    @property
    def macs_per_cycle(self) -> float:
        return self.macs / self.cycles if self.cycles else 0.0

    @property
    def parallel_efficiency(self) -> float:
        """Achieved speedup over one core, divided by the core count."""
        serial = sum(r.cycles for r in self.per_core)
        return serial / (self.cycles * self.cores) if self.cycles else 0.0

    def gops(self, freq_ghz: float = 1.2) -> float:
        return 2.0 * self.macs_per_cycle * freq_ghz


def column_partition(n: int, cores: int, nr: int) -> list[tuple[int, int]]:
    """Split N into per-core ``(lo, hi)`` column slices, nr-aligned when
    possible; fewer than ``cores`` slices when N is too narrow."""
    chunk = math.ceil(n / cores)
    chunk = max(nr, math.ceil(chunk / nr) * nr)
    slices = []
    start = 0
    while start < n:
        end = min(n, start + chunk)
        slices.append((start, end))
        start = end
    return slices


class ParallelMixGemm:
    """N-dimension-parallel Mix-GEMM over per-core u-engines."""

    def __init__(
        self,
        config: MixGemmConfig,
        cores: int = 2,
        *,
        emulate_datapath: bool = False,
        costs: KernelCosts | None = None,
        barrier_cycles: int = DEFAULT_BARRIER_CYCLES,
        backend: str = AUTO,
        pack_cache: PackingCache | None = None,
    ) -> None:
        if cores < 1:
            raise ValueError(f"need at least one core, got {cores}")
        self.config = config
        self.cores = cores
        self.barrier_cycles = barrier_cycles
        # One shared cache across the per-core executors: every core
        # consumes the same packed A, and the N-slices of B are distinct
        # matrices (distinct fingerprints), so sharing is always safe.
        self.pack_cache = pack_cache
        # Each executor owns a stateful MicroEngine, so a gemm() call
        # needs the whole bank exclusively; concurrent callers
        # serialize on this lock instead of corrupting engine state.
        self._gemm_lock = make_lock("ParallelMixGemm._gemm_lock")
        self._executors = [                 # repro: guarded-by(_gemm_lock)
            MixGemm(config, emulate_datapath=emulate_datapath, costs=costs,
                    backend=backend, pack_cache=pack_cache)
            for _ in range(cores)
        ]

    @staticmethod
    def _run_slice(executor: MixGemm, a: np.ndarray,
                   b_slice: np.ndarray) -> GemmResult:
        """One core's share: an ordinary single-core GEMM on its slice.

        A staticmethod on purpose: worker threads receive their executor
        explicitly instead of reading ``self._executors``, so the only
        touch of the guarded bank happens under ``_gemm_lock`` in
        :meth:`gemm`.
        """
        return executor.gemm(a, b_slice)

    def gemm(self, a: np.ndarray, b: np.ndarray, *,
             cores: int | None = None) -> ParallelGemmResult:
        """Compute ``A @ B`` across the cores; bit-exact, max-core timing.

        With more than one slice the per-core slices run on real worker
        threads -- results stay bit-exact because the slices write
        disjoint columns and are collected in submission order,
        independent of thread scheduling.

        ``cores`` restricts this call to the first ``cores`` executors
        of the bank (``1 <= cores <= self.cores``), reusing one executor
        bank (and its shared packing cache) across worker counts.
        """
        if cores is None:
            cores = self.cores
        elif not 1 <= cores <= self.cores:
            raise BinSegError(
                f"cores={cores} outside the constructed bank of "
                f"{self.cores} executors")
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise BinSegError("parallel gemm expects conformable 2-D "
                              "operands")
        m, k = a.shape
        n = b.shape[1]
        c = np.zeros((m, n), dtype=np.int64)
        slices = column_partition(n, cores, self.config.blocking.nr)
        with self._gemm_lock:
            if len(slices) > 1:
                with ThreadPoolExecutor(
                        max_workers=len(slices),
                        thread_name_prefix="repro-core") as pool:
                    futures = [
                        pool.submit(self._run_slice, executor,
                                    a, b[:, lo:hi])
                        for executor, (lo, hi)
                        in zip(self._executors, slices)
                    ]
                    per_core = [f.result() for f in futures]
            else:
                per_core = [
                    executor.gemm(a, b[:, lo:hi])
                    for executor, (lo, hi)
                    in zip(self._executors, slices)
                ]
        for result, (lo, hi) in zip(per_core, slices):
            c[:, lo:hi] = result.c
        slowest = max((r.cycles for r in per_core), default=0)
        return ParallelGemmResult(
            c=c,
            cycles=slowest + self.barrier_cycles,
            macs=m * n * k,
            per_core=per_core,
        )


def combined_pmu(result: ParallelGemmResult) -> PmuCounters:
    """Aggregate PMU counters across cores (diagnostics)."""
    total = PmuCounters()
    for r in result.per_core:
        p = r.pmu
        total.engine_busy_cycles += p.engine_busy_cycles
        total.buffer_full_stall_cycles += p.buffer_full_stall_cycles
        total.get_stall_cycles += p.get_stall_cycles
        total.macs += p.macs
        total.groups += p.groups
        total.ip_instructions += p.ip_instructions
        total.get_instructions += p.get_instructions
        total.set_instructions += p.set_instructions
    total.cycles_total = result.cycles
    return total
