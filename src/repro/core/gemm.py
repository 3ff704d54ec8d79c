"""The Mix-GEMM software library: Algorithm 1 on top of the u-engine.

This is the BLIS-derived narrow-precision GEMM of Section III-A.  The three
procedures of Algorithm 1 map one-to-one onto methods here:

* :meth:`MixGemm.gemm`          -- ``M-GEMM``: panel decomposition over
  ``n/nc``, ``k/kc``, ``m/mc`` plus the single ``bs.set``;
* :meth:`MixGemm._macro_kernel` -- ``MACRO-KERNEL``: u-panel extraction over
  ``nc/nr`` and ``mc/mr``;
* :meth:`MixGemm._micro_kernel` -- ``u-KERNEL``: the bs.ip issue loops and
  the mr x nr bs.get collection, with ``kua``/``kub`` balancing for mixed
  precision.

The library drives a :class:`~repro.core.microengine.MicroEngine` instance,
so every run is simultaneously a bit-exact computation *and* a timing
measurement: the returned :class:`GemmResult` carries the output matrix, the
engine PMU, and the modelled cycle count including the scalar core's load
and loop-overhead instructions (see :class:`KernelCosts`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backend import AUTO, EVENT, FAST, BackendDecision, resolve_backend
from .binseg import BinSegError, ceil_div
from .config import MixGemmConfig
from .fastpath import FastGemmKernel, fastpath_timing
from .isa import KernelCosts
from .microengine import MicroEngine, PmuCounters
from .packcache import PackingCache
from .packing import (
    MicroPanel,
    PackedMatrix,
    _check_matrix,
    create_micro_panel,
    pack_matrix_a,
    pack_matrix_b,
)

# KernelCosts is re-exported here for the many call sites that import
# it from this module; the definition moved next to the bs.* encodings
# in core/isa.py so the ISA cost table has a single home (REP013).


@dataclass
class GemmResult:
    """Output of one Mix-GEMM run: values plus performance accounting."""

    c: np.ndarray
    cycles: int
    macs: int
    pmu: PmuCounters
    config: MixGemmConfig
    instructions: dict[str, int] = field(default_factory=dict)
    backend: str = EVENT

    @property
    def macs_per_cycle(self) -> float:
        return self.macs / self.cycles if self.cycles else 0.0

    def gops(self, freq_ghz: float = 1.2) -> float:
        """Throughput in GOPS (2 ops per MAC) at ``freq_ghz``."""
        return 2.0 * self.macs_per_cycle * freq_ghz


def reference_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ground-truth integer GEMM used to verify the simulated datapath."""
    return np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)


class MixGemm:
    """Narrow-precision GEMM executor bound to one u-engine instance.

    Parameters
    ----------
    config:
        Data sizes, blocking and buffer depth.  Each kc-block spans
        :attr:`~repro.core.config.MixGemmConfig.kc_elements` logical
        elements, so packed k-slices never split a u-vector.
    emulate_datapath:
        Forwarded to the engine: route every accumulation through the
        binary-segmentation pack/multiply/slice pipeline (slow, bit-exact
        by construction) or compute group products directly (identical
        values, faster).
    costs:
        Scalar-core cost model; see :class:`KernelCosts`.
    fault_hook:
        Optional fault injector (duck-typed; see
        :class:`repro.robustness.faults.FaultInjector`).  Its
        ``on_pack(operand, packed)`` is called after each operand is
        compressed -- modelling corruption of the stored u-vectors -- and
        it is forwarded to the engine for AccMem faults.
    pack_guard:
        Optional integrity guard (duck-typed; see
        :class:`repro.robustness.guards.PackGuard`).  Checksums are taken
        at pack time and verified before the u-kernel consumes the
        words; the accumulated C is range-checked against the algebraic
        bound.  Guard failures raise
        :class:`repro.robustness.errors.GuardError`.
    backend:
        ``"event"``, ``"fast"`` or ``"auto"`` (the default).  Each
        :meth:`gemm` call runs the backend
        :func:`repro.core.backend.resolve_backend` picks -- hooks that
        need event fidelity and >64-bit AccMems past int64 always get
        ``event`` -- and keeps that decision on
        :attr:`last_decision`.
    pack_cache:
        Optional :class:`~repro.core.packcache.PackingCache` consulted
        before packing either operand on the event path (the fast path
        never materializes u-vectors).  Share one instance across
        executors to amortize static-weight packing.
    """

    def __init__(
        self,
        config: MixGemmConfig,
        *,
        emulate_datapath: bool = True,
        costs: KernelCosts | None = None,
        fault_hook=None,
        pack_guard=None,
        backend: str = AUTO,
        pack_cache: PackingCache | None = None,
    ) -> None:
        self.config = config
        self.costs = costs or KernelCosts()
        self.fault_hook = fault_hook
        self.pack_guard = pack_guard
        self.emulate_datapath = emulate_datapath
        self.backend = backend
        self.pack_cache = pack_cache
        self.last_decision: BackendDecision | None = None
        self.engine = MicroEngine(emulate_datapath=emulate_datapath,
                                  fault_hook=fault_hook)

    # -- public API -----------------------------------------------------------

    def gemm(self, a: np.ndarray, b: np.ndarray,
             c: np.ndarray | None = None) -> GemmResult:
        """Compute ``C (+)= A @ B`` with quantized narrow-integer operands.

        ``a`` is the m x k activation matrix at ``bw_a`` bits, ``b`` the
        k x n weight matrix at ``bw_b`` bits.  The accumulator matrix ``c``
        (int64) is updated in place when given, matching GEMM semantics.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2:
            raise BinSegError("gemm expects 2-D operands")
        m, k = a.shape
        kb, n = b.shape
        if k != kb:
            raise BinSegError(f"inner dimensions differ: {k} vs {kb}")
        if c is None:
            c = np.zeros((m, n), dtype=np.int64)
        elif c.shape != (m, n):
            raise BinSegError(f"C shape {c.shape} does not match ({m}, {n})")

        self.last_decision = resolve_backend(
            self.backend, self.config,
            emulate_datapath=self.emulate_datapath,
            fault_hook=self.fault_hook,
            pack_guard=self.pack_guard,
        )
        if self.last_decision.backend == FAST:
            return self._fast_gemm(a, b, c)

        if self.pack_cache is not None:
            packed_a = self.pack_cache.get_or_pack("A", a, self.config)
            packed_b = self.pack_cache.get_or_pack("B", b, self.config)
        else:
            packed_a = pack_matrix_a(a, self.config)
            packed_b = pack_matrix_b(b, self.config)

        # Checksums at pack time; storage corruption (the fault hook)
        # happens between packing and consumption, exactly where a real
        # deployment would suffer memory soft errors.
        if self.pack_guard is not None:
            sum_a = self.pack_guard.checksum(packed_a)
            sum_b = self.pack_guard.checksum(packed_b)
        if self.fault_hook is not None:
            packed_a = self.fault_hook.on_pack("A", packed_a)
            packed_b = self.fault_hook.on_pack("B", packed_b)
        if self.pack_guard is not None:
            self.pack_guard.verify(packed_a, sum_a, "A")
            self.pack_guard.verify(packed_b, sum_b, "B")

        blk = self.config.blocking
        kc_eff = self.config.kc_elements
        self.engine.set_config(self.config)  # bs.set, once per GEMM

        # M-GEMM: jc over n, pc over k, ic over m (Algorithm 1 lines 21-28).
        for jc in range(0, n, blk.nc):
            nc = min(blk.nc, n - jc)
            for pc in range(0, k, kc_eff):
                kc = min(kc_eff, k - pc)
                for ic in range(0, m, blk.mc):
                    mc = min(blk.mc, m - ic)
                    self._macro_kernel(
                        packed_a, packed_b, c,
                        ic, mc, jc, nc, pc, pc + kc,
                    )

        if self.pack_guard is not None:
            self.pack_guard.check_result(c, k)

        macs = m * n * k
        pmu = self.engine.pmu
        pmu.cycles_total = self.engine.now
        return GemmResult(
            c=c,
            cycles=self.engine.now,
            macs=macs,
            pmu=pmu,
            config=self.config,
            instructions={
                "bs.set": pmu.set_instructions,
                "bs.ip": pmu.ip_instructions,
                "bs.get": pmu.get_instructions,
            },
        )

    def _fast_gemm(self, a: np.ndarray, b: np.ndarray,
                   c: np.ndarray) -> GemmResult:
        """The fast backend's branch of :meth:`gemm`.

        Validates the operands in the packers' order, so both backends
        raise the same :class:`BinSegError` on malformed inputs, then
        adds the :class:`~repro.core.fastpath.FastGemmKernel` product to
        ``c`` and charges the analytic
        :func:`~repro.core.fastpath.fastpath_timing`.  The event backend
        never resets between calls -- the engine clock and PMU
        accumulate -- so the modelled ``bs.set`` and cycles are folded
        into the same engine state, keeping a reused executor exactly
        cycle- and counter-compatible with an all-event history.
        """
        config = self.config
        m, k = a.shape
        n = b.shape[1]
        a64 = _check_matrix(a, config.bw_a, config.signed_a, "A")
        if k == 0 and m > 0:
            raise BinSegError("cannot pack an empty k vector")
        b64 = _check_matrix(b, config.bw_b, config.signed_b, "B")
        if k == 0 and n > 0:
            raise BinSegError("cannot pack an empty k vector")

        timing = fastpath_timing(config, self.costs, m, n, k)
        c += FastGemmKernel(config, b64)(a64).astype(np.int64, copy=False)

        engine = self.engine
        engine.set_config(config)            # the modelled bs.set
        engine.advance(timing.cycles - 1)    # everything after it
        pmu = engine.pmu
        pmu.engine_busy_cycles += timing.engine_busy_cycles
        pmu.buffer_full_stall_cycles += timing.buffer_full_stall_cycles
        pmu.get_stall_cycles += timing.get_stall_cycles
        pmu.macs += timing.macs
        pmu.groups += timing.groups
        pmu.ip_instructions += timing.ip_instructions
        pmu.get_instructions += timing.get_instructions
        pmu.cycles_total = engine.now
        return GemmResult(
            c=c,
            cycles=engine.now,
            macs=m * n * k,
            pmu=pmu,
            config=config,
            instructions={
                "bs.set": pmu.set_instructions,
                "bs.ip": pmu.ip_instructions,
                "bs.get": pmu.get_instructions,
            },
            backend=FAST,
        )

    # -- Algorithm 1 internals --------------------------------------------------

    def _macro_kernel(
        self,
        packed_a: PackedMatrix,
        packed_b: PackedMatrix,
        c: np.ndarray,
        ic: int, mc: int, jc: int, nc: int, k_lo: int, k_hi: int,
    ) -> None:
        blk = self.config.blocking
        # An edge tile of a block whose mc/nc is not a multiple of mr/nr
        # reaches into the next block; its cells there are that block's
        # to update, so the tile writes only through this block's view.
        c_blk = c[:ic + mc, :jc + nc]
        for jr in range(jc, jc + nc, blk.nr):
            b_up = create_micro_panel(packed_b, jr, blk.nr, k_lo, k_hi)
            for ir in range(ic, ic + mc, blk.mr):
                a_up = create_micro_panel(packed_a, ir, blk.mr, k_lo, k_hi)
                self._micro_kernel(a_up, b_up, c_blk, ir, jr)

    def _micro_kernel(
        self,
        a_up: MicroPanel,
        b_up: MicroPanel,
        c: np.ndarray,
        ir: int, jr: int,
    ) -> None:
        """u-KERNEL: stream u-vector pairs group by group, then collect.

        Issue order matches Algorithm 1: for every k-group, all nr x mr
        (i, j) cells receive their kua/kub u-vectors, so the engine's
        modulo-AccMem addressing lines up with slot ``j + i * mr``.
        """
        blk = self.config.blocking
        lay = self.config.layout
        costs = self.costs
        engine = self.engine
        n_groups = a_up.runs[0].n_groups
        ku_iters = max(lay.kua, lay.kub)

        for g in range(n_groups):
            # The k-group's u-vectors are loaded from L1 into the RF once
            # (kua*mr + kub*nr loads) and reused across the i/j loops.
            engine.advance(
                costs.load_cost
                * (lay.kua * blk.mr + lay.kub * blk.nr)
                + costs.kgroup_overhead
            )
            a_groups = [run.group_words(g) for run in a_up.runs]
            for i in range(blk.nr):
                b_words = b_up.runs[i].group_words(g)
                for a_words in a_groups:
                    engine.advance(costs.inner_loop_overhead)
                    for ku in range(ku_iters):
                        push_a = ku < lay.kua
                        push_b = ku < lay.kub
                        engine.push_pair(
                            a_words[ku] if push_a else 0,
                            b_words[ku] if push_b else 0,
                            push_a=push_a,
                            push_b=push_b,
                        )

        # Collection loop (Algorithm 1 lines 11-14) + C update.
        for i in range(blk.nr):
            for j in range(blk.mr):
                value, _ = engine.read_slot(j + i * blk.mr)
                row, col = ir + j, jr + i
                if row < c.shape[0] and col < c.shape[1]:
                    engine.advance(costs.c_update_cost)
                    c[row, col] += value


def mix_gemm(
    a: np.ndarray,
    b: np.ndarray,
    bw_a: int,
    bw_b: int,
    *,
    signed_a: bool = True,
    signed_b: bool = True,
    emulate_datapath: bool = True,
    config: MixGemmConfig | None = None,
) -> GemmResult:
    """One-call convenience wrapper: quantized ``A @ B`` via Mix-GEMM."""
    if config is None:
        config = MixGemmConfig(
            bw_a=bw_a, bw_b=bw_b, signed_a=signed_a, signed_b=signed_b,
        )
    executor = MixGemm(config, emulate_datapath=emulate_datapath)
    return executor.gemm(a, b)


def uvector_loads(m: int, n: int, k: int, config: MixGemmConfig) -> int:
    """Total u-vector loads a full GEMM performs (for memory accounting)."""
    lay = config.layout
    blk = config.blocking
    groups_per_run = ceil_div(k, lay.group_elements)
    m_tiles = ceil_div(m, blk.mr)
    n_tiles = ceil_div(n, blk.nr)
    per_kernel = groups_per_run * (lay.kua * blk.mr + lay.kub * blk.nr)
    return m_tiles * n_tiles * per_kernel
