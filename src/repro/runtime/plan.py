"""Compiled deployment graphs: the runtime's one executor.

Every inference in this package runs a :class:`GraphPlan`:
:class:`~repro.runtime.engine.InferenceEngine.run`, the threaded serving
workers and the shared-memory worker processes.  The BLIS lineage
Mix-GEMM builds on (the paper's Fig. 3 deploy stage) packs and lays out
weights once per deployment and keeps the hot loop pure arithmetic;
:func:`compile_graph` performs that amortization once:

* static weights are quantized once and their per-channel scales cached;
* ``batchnorm2d`` nodes whose sole input is a preceding conv become part
  of that conv's epilogue (the BN ``scale``/``shift`` arrays are
  precomputed constants), and elementwise ``relu``/``relu6`` nodes fuse
  into the producing step's epilogue;
* conv lowering state (output geometry, a channels-last zero-halo
  buffer and its window view) is cached per input shape, replacing the
  per-call ``np.pad`` and im2row copy;
* a stride-1, single-group quantized conv whose GEMM is one fast
  kc-block that no AccMem wraps lowers through a *kernel-row panel*
  (Cho & Brand's MEC): it copies one ``KW*C`` run per padded input row
  and output column, ``KW`` copies of each input row instead of the
  im2row matrix's ``KH*KW``, and sums ``KH`` GEMMs on shifted views of
  the panel against row views of the kernel's one B block;
* a conv with a 1x1 kernel, padding 0 and one group lowers *directly*,
  on every backend: its buffer is the ``(N, OH, OW, C)`` A matrix
  itself, the quantizer (or a float conv's copy) writes only the
  strided read grid ``x[:, :, ::s, ::s]`` into it, and the GEMM reads
  it without a lowering copy.  Every other conv (strided, grouped,
  float, wrapping, multi-block, guarded, event or numpy reference)
  keeps the im2row copy;
* activation quantize is divide -> ``rint`` -> clip, the last two in
  place, then the cast: every plan quantizer has zero-point 0, so the
  zero-point add is gone (:class:`_ActQuantizer` says why the codes do
  not change);
* with it, each conv's per-channel constants (dequantization scale,
  bias, folded-BN ``scale``/``shift``) are tiled once to one sample's
  ``oh*ow*Cout`` channels-last width, so the epilogue runs on wide
  ``(N, oh*ow*Cout)`` rows instead of broadcasting over ``Cout``-long
  inner loops.  A ``batchnorm2d`` left unfused keeps the ``(1, C, 1,
  1)`` broadcast of :func:`~repro.runtime.ops.apply_batchnorm`;
* every step that produces a fresh output array (all but ``identity``
  and ``flatten``, which may return their input) finishes it in place:
  no epilogue entry allocates;
* event-backend weight panels are pre-packed into the shared
  :class:`~repro.core.packcache.PackingCache`, and one reusable
  executor is bound per (config, layer) instead of one per call;
* fast-backend weight operands are validated once and baked into a
  :class:`~repro.core.fastpath.FastGemmKernel` -- the same kernel a
  fast-backend :meth:`~repro.core.gemm.MixGemm.gemm` runs -- which
  splits them into kc-blocks in the narrowest exact type, with per-call
  cycles served by the memoized
  :func:`~repro.core.fastpath.fastpath_timing` oracle.  When every block
  of a layer is float32 and the AccMem does not wrap, the layer never
  widens: activation codes, the lowering buffer and the GEMM result all
  stay float32 until the epilogue's float64 dequantization.

Guarded execution
-----------------
When an :class:`~repro.runtime.engine.InferenceEngine` arms guards or a
fault plan, it compiles the same fused plan an unguarded engine runs.
The plan's tap (the range observer, and from ``light`` on the NaN/Inf
fence, :class:`_NodeFence`) is set on every step at compile time, and a
fused step reports each absorbed node's value to it in graph order:
the conv/add/linear result under its ``source_label``, then every
folded batchnorm or activation under its own node label, each before
the next epilogue entry overwrites it in place; :meth:`GraphPlan.run`
taps the step's final label.  The fence therefore fires at the node,
and with the message, an unfused plan gives -- an inf batchnorm shift
is caught at the batchnorm, before a relu turns ``-inf`` into 0.  It
skips the finiteness scan (and keeps the range observation) at nodes
that cannot be the first to fail: ops that map finite inputs to finite
outputs (``_FINITE_OPS``).  The raw graph input is checked once, before
the first step, so every node reads fenced values.

Each quantized step then binds a :class:`_GuardedGemm` in place of the
bound one: per call it announces the layer to the fault injector, runs
a fresh :class:`~repro.core.gemm.MixGemm` with the pack guard and fault
hook wired in, checks the shadow reference, retries, and finally
degrades to the numpy reference, recording every
:class:`~repro.robustness.recovery.FaultEvent`.  The choice is made when
the plan is built, so an unguarded plan's steps carry no guard branch.
Graph-level work -- the static precheck, injected weight corruption and
the weight vault's verify-and-restore -- stays in the engine, before the
plan runs.  ``compile_graph(fuse=False)`` remains as the differential
reference that tests and ``repro check --verify-plan`` compare against.

Bit-exactness is a design invariant, not an aspiration: every float
operation the plan executes is the numpy expression the quantized
training forward evaluates (shared kernels live in
:mod:`repro.runtime.ops`), the GEMM runs the very kernel a fast-backend
:meth:`~repro.core.gemm.MixGemm.gemm` runs (exact integers in a
float32 container convert to the identical float64), and the
BN/activation "fusion" hoists only *constant computation* -- the
per-element float sequence is untouched.  The differential matrix in
``tests/runtime/test_plan_matrix.py`` asserts equality, never
closeness, and ``tests/runtime/test_interpreter_golden.py`` replays
recorded reference runs -- outputs, cycles, fault events -- bit for bit.

Plans hold per-call scratch state (lowering buffers, bound executors)
and are therefore **not** thread-safe; the batched server in
:mod:`repro.runtime.serving` gives each worker its own plan and shares
only the (locked) packing cache.

Zero-copy plan sharing
----------------------
Every constant array a plan bakes in (prepacked kc-blocks, folded BN
``scale``/``shift``, output scales, biases, float panels) is immutable
after :func:`compile_graph` returns.  :func:`export_plan` serializes
them once into a single ``multiprocessing.shared_memory`` segment and
rebinds the plan's arrays to **read-only views** of that segment;
:func:`attach_plan` rebuilds the plan in another process directly on
the shared buffers, so N worker processes hold one copy of the
weights.  The manifest carries a
:meth:`~repro.core.packcache.PackingCache.fingerprint` per array, and
attach verifies both the segment payload and the locally recompiled
arrays against it -- a tampered or stale segment is rejected before a
single inference runs (post-attach tampering is caught by the plan-
equivalence verifier, ``repro check --verify-plan``).  Lifecycle: the
exporting process owns the segment and must ``close()`` **and**
``unlink()`` it; attached processes only ever ``close()`` their
mapping (lint rule REP011 enforces the pairing under ``runtime/``).
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field
from multiprocessing import shared_memory
from typing import Callable, Iterator, Optional

import numpy as np

from repro.core.errors import ReproError

from repro.core.backend import resolve_backend
from repro.core.config import (
    ACCMEM_CONTAINER_BITS,
    BlockingParams,
    DEFAULT_ACCMEM_BITS,
    EXECUTION_BACKENDS,
    MixGemmConfig,
)
from repro.core.fastpath import (
    FastGemmKernel,
    fastpath_timing,
    kblock_group_counts,
)
from repro.core.gemm import KernelCosts, MixGemm, reference_gemm
from repro.core.packcache import PackingCache
from repro.core.packing import _check_matrix
from repro.nn.functional_quant import weight_absmax_scale
from repro.nn.im2col import (
    K_ORDER_CHANNELS_LAST,
    K_ORDER_IM2ROW,
    channels_last_order,
    rows_to_nchw,
)
from repro.quant.affine import QuantParams, quantize
from repro.robustness.errors import GuardError, ReliabilityWarning
from repro.robustness.guards import PackGuard, check_finite, guard_rank
from repro.robustness.recovery import (
    FaultEvent,
    RecoveryPolicy,
    ShadowVerifier,
)

from . import ops
from .graph import SUPPORTED_OPS, GraphError, GraphModel, NodeSpec
from .observe import observe_range

#: Blocking every quantized layer compiles at: small tiles keep the
#: event-driven engine fast on laptop-scale models.  Public so the
#: static contract checker (``repro.analysis``) can reason about the
#: exact per-block accumulation depth a plan will use.
SIM_BLOCKING = BlockingParams(mc=16, nc=16, kc=64)


@dataclass
class LayerStats:
    """Per-quantized-GEMM execution record (mixgemm backend only).

    ``layer`` is the node's effective id (explicit ``id`` or the
    positional ``n<i>`` default), so per-layer cycle reports can name
    the layer they measured.
    """

    op: str
    config: str
    macs: int
    cycles: int
    layer: str = ""

    @property
    def macs_per_cycle(self) -> float:
        return self.macs / self.cycles if self.cycles else 0.0


@dataclass
class InferenceResult:
    """Output batch plus simulator statistics and the reliability log.

    ``fault_events`` records every guard detection (and what the
    recovery policy did about it); ``recovered_layers`` lists the nodes
    whose output was salvaged by retry, vault restore or reference
    fallback.  A clean run has both empty.
    """

    output: np.ndarray
    layer_stats: list[LayerStats] = field(default_factory=list)
    fault_events: list[FaultEvent] = field(default_factory=list)
    recovered_layers: list[str] = field(default_factory=list)
    guard_level: str = "off"

    @property
    def total_cycles(self) -> int:
        return sum(s.cycles for s in self.layer_stats)

    @property
    def total_macs(self) -> int:
        return sum(s.macs for s in self.layer_stats)

    def gops(self, freq_ghz: float = 1.2) -> float:
        if self.total_cycles == 0:
            return 0.0
        return 2.0 * self.total_macs / self.total_cycles * freq_ghz

    def reliability_report(self) -> dict:
        """Structured summary of what the guards saw during this run."""
        by_guard: dict[str, int] = {}
        for e in self.fault_events:
            by_guard[e.detected_by] = by_guard.get(e.detected_by, 0) + 1
        return {
            "guard_level": self.guard_level,
            "detections": len(self.fault_events),
            "by_guard": by_guard,
            "recovered_layers": list(self.recovered_layers),
        }



def _mark_recovered(result: InferenceResult, label: str) -> None:
    if label not in result.recovered_layers:
        result.recovered_layers.append(label)


# -- GEMM executors -----------------------------------------------------------
#
# A quantized step calls ``gemm(a, result) -> C`` once per group.  Which
# class sits behind the call is decided when the plan is built: the
# numpy reference, a bound Mix-GEMM executor, or a guarded one.


class _ActQuantizer:
    """Per-tensor, zero-point-0 activation quantizer with the constants
    pre-resolved.

    Runs divide -> ``np.rint`` -> clip, the last two in place on the
    quotient, then casts: the integer codes of
    :func:`repro.quant.affine.quantize`'s divide -> add zero-point ->
    round -> clip -> cast in three passes over the data.  Every plan
    quantizer has zero-point 0.0 (:func:`_quant_params`; the
    constructor rejects any other), and adding +0.0 changes a float
    only when it is an exact -0.0 quotient, which becomes +0.0.  Both
    are the code 0: the int64 cast maps them to the same integer, and
    a float-container GEMM sums its products from +0, so a -0.0 operand
    cannot reach its result -- rounding a small negative quotient has
    always produced -0.0 codes on this path.  The cast goes to the
    consuming GEMM's ``input_dtype``: the clipped codes are small
    integers, so the float32 cast of the fast path is exactly as
    lossless as int64.  :meth:`into` casts on assignment into a
    caller's buffer (a conv lowering's interior) instead.
    """

    def __init__(self, qp: QuantParams, dtype: type) -> None:
        if np.any(qp.zero_point != 0.0):
            raise ValueError(
                f"plan activation quantizers have zero-point 0, got "
                f"{qp.zero_point}")
        self.qp = qp
        self.dtype = dtype
        self._scale = qp._expand(qp.scale, 1)
        self._qmin = qp.qmin
        self._qmax = qp.qmax

    def _codes(self, x: np.ndarray) -> np.ndarray:
        q = x / self._scale
        np.rint(q, out=q)
        return np.clip(q, self._qmin, self._qmax, out=q)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._codes(x).astype(self.dtype)

    def into(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write the codes of ``x`` into ``out`` (same shape, any dtype)."""
        out[...] = self._codes(x)


class _RefGemm:
    """The numpy backend's integer GEMM: ``a @ b``, nothing recorded."""

    mode = "numpy"
    config = None
    prepacked = False
    input_dtype = np.int64
    block = None

    def __init__(self, b: np.ndarray) -> None:
        self._b = b
        self.k, self.n = b.shape

    def __call__(self, a: np.ndarray, result: InferenceResult) -> np.ndarray:
        return a @ self._b


class _BoundGemm:
    """One (config, layer, group) GEMM with the weight operand baked in.

    The backend decision is taken **once** at bind time by
    :func:`~repro.core.backend.resolve_backend`, the rule
    :class:`~repro.core.gemm.MixGemm` applies per call (an unguarded
    plan has no hooks, so it sees the identical inputs).  The fast mode
    holds the :class:`~repro.core.fastpath.FastGemmKernel` a fast
    :meth:`~repro.core.gemm.MixGemm.gemm` would build, with the
    weight-side validation and the timing lookup hoisted out of the
    call.  The event mode keeps one reusable
    :class:`~repro.core.gemm.MixGemm`; per-call cycles are the engine
    clock *delta*, which equals a fresh executor's count because the
    micro-kernel timing is translation invariant (see the
    :mod:`repro.core.fastpath` module docstring).
    """

    def __init__(self, b: np.ndarray, config: MixGemmConfig,
                 gemm_backend: str, pack_cache: PackingCache,
                 label: str, op: str) -> None:
        self.config = config
        self.label = label
        self.op = op
        self.k, self.n = b.shape
        self._costs = KernelCosts()
        self.mode = resolve_backend(gemm_backend, config).backend
        self.prepacked = False
        if self.mode == "fast":
            self.kernel = FastGemmKernel(
                config, _check_matrix(b, config.bw_b, config.signed_b, "B"))
            #: The A dtype this GEMM consumes without widening it.
            self.input_dtype = self.kernel.input_dtype
            self._cycles_by_m: dict[int, int] = {}
        else:
            self.input_dtype = np.int64
            self._b = b
            self._executor = MixGemm(config, emulate_datapath=False,
                                    backend="event",
                                    pack_cache=pack_cache)
            self.prepacked = pack_cache.prewarm("B", b, config)

    @property
    def block(self) -> Optional[np.ndarray]:
        """The fast kernel's B panel when it is a single kc-block that no
        AccMem wraps, else ``None``.

        Every product of such a GEMM, and every sum of some of them, is
        bounded by the Eq. 5 bound that chose the block's dtype, so any
        split of K into row ranges multiplies and sums to the same
        exact C (:meth:`sum_taps`).
        """
        if (self.mode != "fast" or self.kernel.wrap_bits is not None
                or len(self.kernel.blocks) != 1):
            return None
        return self.kernel.blocks[0][1]

    def __call__(self, a: np.ndarray, result: InferenceResult) -> np.ndarray:
        """``C`` for ``a`` already in the config's range; logs the stats.

        The A-side ``_check_matrix`` is provably redundant here --
        ``quantize`` clipped the activations into exactly the
        ``(bw_a, signed_a)`` range this config declares -- so the fast
        mode skips it; values and cycles are unaffected.  ``C`` holds
        exact integers, in a float container when the kernel's
        ``acc_dtype`` is one.
        """
        observe_range(self.label, "act", a)
        m = a.shape[0]
        if self.mode == "event":
            engine = self._executor.engine
            before = engine.now
            res = self._executor.gemm(a, self._b)
            return self._logged(res.c, m, res.cycles - before, result)
        return self._logged(self.kernel(a), m, self._fast_cycles(m), result)

    def sum_taps(self, views: list[np.ndarray], act: np.ndarray,
                 result: InferenceResult) -> np.ndarray:
        """``C`` of the GEMM whose A rows are ``views`` side by side:
        ``sum(views[i] @ taps[i])``, where ``taps`` are :attr:`block`'s
        ``len(views)`` equal row ranges, sliced on each call.  ``act``
        holds exactly A's values; the call is observed and logged as the
        one ``(m, n, k)`` GEMM it replaces.
        """
        observe_range(self.label, "act", act)
        block = self.kernel.blocks[0][1]
        rows = block.shape[0] // len(views)
        taps = [block[i * rows:(i + 1) * rows] for i in range(len(views))]
        c = np.matmul(views[0], taps[0])
        if len(views) > 1:
            part = np.empty_like(c)
            for view, tap in zip(views[1:], taps[1:]):
                np.matmul(view, tap, out=part)
                c += part
        c = c.reshape(-1, self.n)
        m = c.shape[0]
        return self._logged(c, m, self._fast_cycles(m), result)

    def _fast_cycles(self, m: int) -> int:
        cycles = self._cycles_by_m.get(m)
        if cycles is None:
            cycles = fastpath_timing(self.config, self._costs, m,
                                     self.n, self.k).cycles
            self._cycles_by_m[m] = cycles
        return cycles

    def _logged(self, c: np.ndarray, m: int, cycles: int,
                result: InferenceResult) -> np.ndarray:
        observe_range(self.label, "acc", c)
        result.layer_stats.append(LayerStats(
            op=self.op, config=self.config.name, macs=m * self.n * self.k,
            cycles=cycles, layer=self.label,
        ))
        return c


@dataclass(frozen=True)
class _Guards:
    """The per-call robustness hooks of a guarded plan.

    Built by :class:`~repro.runtime.engine.InferenceEngine`, which owns
    the fault injector and the shadow verifier across runs.
    """

    level: str
    recovery: RecoveryPolicy
    injector: object = None
    shadow: Optional[ShadowVerifier] = None

    @property
    def rank(self) -> int:
        return guard_rank(self.level)

    def needs_gemm_hooks(self, backend: str) -> bool:
        """Whether a quantized GEMM must run as a :class:`_GuardedGemm`.

        Below ``standard`` and without an injector a guarded GEMM would
        build hook-free executors, which compute exactly what the bound
        GEMM computes.
        """
        if self.injector is not None:
            return True
        return backend == "mixgemm" and self.rank >= 2


class _GuardedGemm:
    """A quantized GEMM run under the armed guards, with recovery.

    Holds the quantized weight operand and, per call, builds a fresh
    :class:`~repro.core.gemm.MixGemm` with the fault hook and (from
    ``standard``) the :class:`~repro.robustness.guards.PackGuard` wired
    in.  A :class:`~repro.robustness.errors.GuardError` or a shadow
    mismatch (``full``) records a :class:`FaultEvent`, then retries up
    to ``recovery.max_retries`` times before degrading to the integer
    reference (or raising when fallback is off).  The range tap sees
    only clean runs: injected faults legitimately escape any clean-run
    interval.  With ``config=None`` (numpy backend) it only announces
    the layer to the injector and runs the reference product.
    """

    mode = "guarded"
    prepacked = False
    input_dtype = np.int64
    block = None

    def __init__(self, b: np.ndarray, config: Optional[MixGemmConfig],
                 guards: _Guards, gemm_backend: str,
                 pack_cache: PackingCache, label: str, op: str,
                 layer_index: int) -> None:
        self._b = b
        self.k, self.n = b.shape
        self.config = config
        self.guards = guards
        self.gemm_backend = gemm_backend
        self.pack_cache = pack_cache
        self.label = label
        self.op = op
        self.layer_index = layer_index

    def __call__(self, a: np.ndarray, result: InferenceResult) -> np.ndarray:
        guards = self.guards
        if guards.injector is not None:
            guards.injector.begin_layer(self.layer_index)
        if self.config is None:
            return a @ self._b
        pack_guard = PackGuard(self.config) if guards.rank >= 2 else None
        shadow = guards.shadow
        reference = shadow.reference(a, self._b) if shadow else None
        detected = False
        attempts = guards.recovery.max_retries + 1
        for attempt in range(attempts):
            executor = MixGemm(self.config, emulate_datapath=False,
                               fault_hook=guards.injector,
                               pack_guard=pack_guard,
                               backend=self.gemm_backend,
                               pack_cache=self.pack_cache)
            try:
                gemm = executor.gemm(a, self._b)
            except GuardError as exc:
                failure = (exc.guard, str(exc))
            else:
                if reference is None or shadow.matches(gemm.c, reference):
                    break
                failure = ("shadow", "simulated output disagrees with "
                                     "the integer reference")
            detected = True
            retrying = attempt < attempts - 1
            result.fault_events.append(FaultEvent(
                layer=self.label, op=self.op, detected_by=failure[0],
                action="retried" if retrying else "fallback",
                message=failure[1],
            ))
            if not retrying:
                return self._degrade(a, result, reference)
        if guards.injector is None and not detected:
            observe_range(self.label, "act", a)
            observe_range(self.label, "acc", gemm.c)
        result.layer_stats.append(LayerStats(
            op=self.op, config=self.config.name, macs=gemm.macs,
            cycles=gemm.cycles, layer=self.label,
        ))
        if detected:
            _mark_recovered(result, self.label)
        return gemm.c

    def _degrade(self, a: np.ndarray, result: InferenceResult,
                 reference: Optional[np.ndarray]) -> np.ndarray:
        """Retries exhausted: degrade to the reference backend or raise."""
        recovery = self.guards.recovery
        if not recovery.fallback:
            raise GuardError(
                f"layer {self.label} ({self.op}) failed every guarded "
                f"attempt and fallback is disabled",
                guard="recovery",
            )
        value = reference if reference is not None else reference_gemm(
            a, self._b)
        _mark_recovered(result, self.label)
        if recovery.warn:
            warnings.warn(ReliabilityWarning(
                f"layer {self.label} ({self.op}) fell back to the numpy "
                f"reference after exhausting {recovery.max_retries} "
                f"retries"
            ), stacklevel=4)
        return value


# -- compiled steps -----------------------------------------------------------


class _BnEpilogue:
    """Folded batchnorm with its constant arrays as plain attributes.

    A callable class instead of a closure so the shared-memory exporter
    can discover ``scale``/``shift`` and rebind them onto a shared
    segment (closure cells would hide them); the per-element float
    sequence is :func:`~repro.runtime.ops.apply_batchnorm` unchanged.
    """

    def __init__(self, scale: np.ndarray, shift: np.ndarray) -> None:
        self.scale = scale
        self.shift = shift

    def __call__(self, y: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        return ops.apply_batchnorm(y, self.scale, self.shift, out=out)

    def tiled(self, reps: int) -> "_BnEpilogue":
        """This fold with ``scale``/``shift`` tiled for a wide view."""
        return _BnEpilogue(_tile(self.scale, reps), _tile(self.shift, reps))


def _tile(per_channel: Optional[np.ndarray], reps: int
          ) -> Optional[np.ndarray]:
    """A per-channel constant repeated ``reps`` times along one axis.

    Broadcast over a sample's ``oh*ow*C`` channels-last elements, the
    tiled copy pairs every element with its own channel's value, so a
    ufunc's inner loop runs over the whole row instead of over ``C``.
    """
    if per_channel is None:
        return None
    return np.tile(np.ravel(per_channel), reps)


class _LinearFn:
    """float ``linear`` with rebindable weight/bias arrays (see above)."""

    def __init__(self, weight_t: np.ndarray,
                 bias: Optional[np.ndarray]) -> None:
        self.weight_t = weight_t
        self.bias = bias

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.bias is None:
            return x @ self.weight_t
        return x @ self.weight_t + self.bias


class _Step:
    """Base compiled step: one output label plus a fused epilogue chain.

    ``tap`` is the plan's per-node tap (set by :func:`_compile`, ``None``
    when nothing watches).  The finish methods report to it the value
    each epilogue entry is about to overwrite, under the label of the
    node that produced it (``_tap_labels``); the step's own output is
    tapped by :meth:`GraphPlan.run`.
    """

    #: Set by subclasses that accept a batchnorm fold.
    can_fold_bn = False

    def __init__(self, label: str, input_ids: list[str]) -> None:
        self.label = label
        #: The base node's label, stable across fusion (``label`` moves
        #: to the absorbed follower's id) -- the plan-equivalence
        #: verifier keys the pre-epilogue range off this.
        self.source_label = label
        self.input_ids = list(input_ids)
        self.epilogue: list[Callable[[np.ndarray], np.ndarray]] = []
        self.fused: list[str] = []
        self.tap: Optional[Callable[[str, np.ndarray], None]] = None
        #: Entry ``i``'s input value's node label: ``source_label``,
        #: then each absorbed node's but the last.
        self._tap_labels: list[str] = []

    def fuse(self, node: NodeSpec, label: str) -> None:
        """Absorb an elementwise follower; the step takes its label."""
        if node.op == "batchnorm2d":
            scale, shift = ops.batchnorm_params(node.tensors,
                                                node.attrs["eps"])
            self.epilogue.append(_BnEpilogue(scale, shift))
        elif node.op == "relu":
            self.epilogue.append(ops.relu)
            self.can_fold_bn = False  # BN after a non-linearity is no fold
        elif node.op == "relu6":
            self.epilogue.append(ops.relu6)
            self.can_fold_bn = False
        else:  # pragma: no cover - guarded by the fusion pass
            raise GraphError(f"cannot fuse op {node.op}")
        self.fused.append(node.op)
        self._tap_labels.append(self.label)
        self.label = label

    def _finish(self, y: np.ndarray) -> np.ndarray:
        tap = self.tap
        for fn, label in zip(self.epilogue, self._tap_labels):
            if tap is not None:
                tap(label, y)
            y = fn(y)
        return y

    def _finish_in_place(self, y: np.ndarray,
                         epilogue: Optional[list] = None,
                         view: Optional[np.ndarray] = None) -> np.ndarray:
        """:meth:`_finish` on an array the step owns: every epilogue
        entry writes back into ``y`` (same ufuncs, same order).
        ``epilogue`` replaces :attr:`epilogue` with an entry-for-entry
        equivalent whose constants match ``y``'s layout, and ``view``
        (a view of ``y`` in the node's layout) is what the tap sees."""
        tap = self.tap
        seen = y if view is None else view
        for fn, label in zip(self.epilogue if epilogue is None
                             else epilogue, self._tap_labels):
            if tap is not None:
                tap(label, seen)
            fn(y, out=y)
        return y

    def __call__(self, arrays: list[np.ndarray],
                 result: InferenceResult) -> np.ndarray:
        raise NotImplementedError


class _GenericStep(_Step):
    """Non-GEMM op: a precompiled closure over the node's constants."""

    def __init__(self, node: NodeSpec, label: str,
                 input_ids: list[str]) -> None:
        super().__init__(label, input_ids)
        self.op = node.op
        self._fn = self._build(node)

    @staticmethod
    def _build(node: NodeSpec) -> Callable[..., np.ndarray]:
        op = node.op
        if op == "add":
            def _add(a, b):
                if a.shape != b.shape:
                    raise GraphError(
                        f"add shape mismatch: {a.shape} vs {b.shape}")
                return a + b
            return _add
        if op == "channel_scale":
            def _cs(x, s):
                if s.shape != x.shape[:2]:
                    raise GraphError(
                        f"channel_scale gates {s.shape} do not match "
                        f"features {x.shape}")
                return ops.channel_scale(x, s)
            return _cs
        if op == "batchnorm2d":
            scale, shift = ops.batchnorm_params(node.tensors,
                                                node.attrs["eps"])
            return _BnEpilogue(scale, shift)
        if op in ("max_pool2d", "avg_pool2d"):
            kernel, stride = node.attrs["kernel"], node.attrs["stride"]
            pool = ops.max_pool2d if op == "max_pool2d" else ops.avg_pool2d
            return lambda x: pool(x, kernel, stride)
        if op == "linear":
            return _LinearFn(node.tensors["weight"].T,
                             node.tensors.get("bias"))
        simple = {
            "relu": ops.relu, "relu6": ops.relu6, "sigmoid": ops.sigmoid,
            "silu": ops.silu, "flatten": ops.flatten,
            "global_avg_pool2d": ops.global_avg_pool2d,
            "identity": lambda x: x,
        }
        if op in simple:
            return simple[op]
        raise GraphError(f"unsupported op: {op}")

    def __call__(self, arrays: list[np.ndarray],
                 result: InferenceResult) -> np.ndarray:
        out = self._fn(*arrays)
        if self.op in _VIEW_OPS:
            return self._finish(out)
        return self._finish_in_place(out)


#: Generic ops whose result may be (a view of) their input; every other
#: op returns a fresh array its step may finish in place.
_VIEW_OPS = frozenset({"identity", "flatten"})


class _ConvLowering:
    """Per-input-shape conv lowering: a channels-last zero-halo buffer.

    ``_buf`` is ``(N, H+2p, W+2p, C)`` and holds every input channel.
    Its halo is zeroed once and never written; each call refreshes only
    the interior through :attr:`interior`, an NCHW-shaped view, so the
    activation quantizer casts its codes straight into it.  The lowering
    then copies one fixed ``as_strided`` view of the buffer into a fresh
    array, in one of two forms:

    * :meth:`rows` (the default) gives a ``(G, M, K)`` array: group
      ``g``'s A matrix is the contiguous ``rows()[g]``, equal to
      ``im2row`` of that group's channels with its columns in
      ``k_order`` -- ``im2row``'s own ``(C, KH, KW)``, or
      ``(KH, KW, C)``, whose window copy moves contiguous channel runs.
    * :meth:`panel` (``kernel_rows=True``: stride 1, one group,
      ``(KH, KW, C)`` K order) gives the ``(N, (H+2p)*OW, KW*C)``
      kernel-row panel of Cho & Brand's MEC lowering: row ``r*OW + j``
      of a sample is the ``KW*C`` run of padded input row ``r`` that
      starts at column ``j``.  Each padded row is copied ``KW`` times
      instead of ``KH*KW``.  :meth:`tap_views` cuts tap ``kh``'s
      ``KW*C`` columns of every im2row row out of it without copying.

    A *direct* lowering (``direct=True``: a 1x1 kernel, padding 0, one
    group) copies nothing.  Its buffer is ``(N, OH, OW, C)``, the A
    matrix itself: output pixel ``(i, j)`` reads exactly input pixel
    ``(i*s, j*s)``, and with one kernel tap both K orders are the
    channel order.  :attr:`interior` is then the NCHW view of the whole
    buffer, which the caller fills with the strided read grid
    ``x[:, :, ::s, ::s]``, and :meth:`rows` returns the buffer as a
    ``(1, M, C)`` view.

    Not thread-safe (the buffer is shared across calls) -- one plan per
    worker.

    The owning step also keeps its per-channel constants here, tiled to
    the ``oh*ow*Cout`` width of one sample's channels-last output:
    ``out_scale`` (dequantization, ``None`` for a float conv), ``bias``
    and ``epilogue`` (the step's epilogue with every folded batchnorm
    tiled).
    """

    def __init__(self, x_shape: tuple[int, ...], kh: int, kw: int,
                 stride: int, padding: int, groups: int, dtype,
                 k_order: str, kernel_rows: bool = False,
                 direct: bool = False) -> None:
        n, c, h, w = x_shape
        p = padding
        cpg = c // groups
        self.kh = kh
        self.out_h = (h + 2 * p - kh) // stride + 1
        self.out_w = (w + 2 * p - kw) // stride + 1
        self.m = n * self.out_h * self.out_w
        self.kernel_rows = kernel_rows
        self.direct = direct
        self.out_scale: Optional[np.ndarray] = None
        self.bias: Optional[np.ndarray] = None
        self.epilogue: list = []
        if direct:
            self._buf = np.zeros((n, self.out_h, self.out_w, c),
                                 dtype=dtype)
            self.interior = self._buf.transpose(0, 3, 1, 2)
            return
        self._buf = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=dtype)
        self.interior = self._buf[:, p:p + h, p:p + w, :].transpose(
            0, 3, 1, 2)
        sn, sh, sw, sc = self._buf.strides
        if kernel_rows:
            shape = (n, h + 2 * p, self.out_w, kw, c)
            strides = (sn, sh, sw, sw, sc)
            self._copy_shape = (n, (h + 2 * p) * self.out_w, kw * c)
            self._flat_taps = n == 1 or kh == 1
        else:
            lead = (groups, n, self.out_h, self.out_w)
            lead_strides = (cpg * sc, sn, sh * stride, sw * stride)
            if k_order == K_ORDER_CHANNELS_LAST:
                tail, tail_strides = (kh, kw, cpg), (sh, sw, sc)
            else:
                tail, tail_strides = (cpg, kh, kw), (sc, sh, sw)
            shape, strides = lead + tail, lead_strides + tail_strides
            self._copy_shape = (groups, self.m, cpg * kh * kw)
        self._windows = np.lib.stride_tricks.as_strided(
            self._buf, shape=shape, strides=strides, writeable=False)

    def _copy(self) -> np.ndarray:
        # Always a fresh C-contiguous copy: a plain reshape would return
        # a strided view of the buffer when the windows happen to tile
        # it (a grouped 1x1 kernel), and float BLAS must see the layout
        # it always saw.
        out = np.empty(self._copy_shape, dtype=self._buf.dtype)
        np.copyto(out.reshape(self._windows.shape), self._windows)
        return out

    def rows(self) -> np.ndarray:
        """The ``(G, M, K)`` im2row matrices: a copy, or for a direct
        lowering the C-contiguous buffer itself (valid until the next
        fill)."""
        if self.direct:
            return self._buf.reshape(1, self.m, -1)
        return self._copy()

    def panel(self) -> np.ndarray:
        """The ``(N, (H+2p)*OW, KW*C)`` panel of a kernel-row lowering."""
        return self._copy()

    def tap_views(self, panel: np.ndarray) -> list[np.ndarray]:
        """Tap ``kh``'s A rows, as ``(N, OH*OW, KW*C)`` views of
        ``panel``: output pixel ``(i, j)`` reads padded row ``i + kh``,
        so they start ``kh`` padded rows into each sample.  Where the
        views are contiguous (one sample, or ``KH=1``, whose one tap
        spans every panel row) they are ``(M, KW*C)`` row ranges
        instead, for a 2-D GEMM.
        """
        ow = self.out_w
        if self._flat_taps:
            panel = panel.reshape(-1, panel.shape[-1])
            return [panel[i * ow:i * ow + self.m] for i in range(self.kh)]
        length = self.out_h * ow
        return [panel[:, i * ow:i * ow + length] for i in range(self.kh)]


class _QuantGemmBinder:
    """Builds the quantized GEMM executors of one plan.

    Carries the compile-time choice between :class:`_RefGemm`,
    :class:`_BoundGemm` and :class:`_GuardedGemm`, and numbers the
    quantized nodes in graph order for the fault injector.
    """

    def __init__(self, backend: str, gemm_backend: str, accmem_bits: int,
                 pack_cache: PackingCache, guards: Optional[_Guards]) -> None:
        self.backend = backend
        self.gemm_backend = gemm_backend
        self.accmem_bits = accmem_bits
        self.pack_cache = pack_cache
        self.guards = guards
        self._guarded = (guards is not None
                         and guards.needs_gemm_hooks(backend))
        self._quant_nodes = 0

    def _config(self, node: NodeSpec) -> Optional[MixGemmConfig]:
        if self.backend != "mixgemm":
            return None
        attrs = node.attrs
        return MixGemmConfig(
            bw_a=attrs["act_bits"], bw_b=attrs["weight_bits"],
            signed_a=attrs["act_signed"], signed_b=True,
            blocking=SIM_BLOCKING, accmem_bits=self.accmem_bits,
        )

    def k_order_free(self, node: NodeSpec, k: int) -> bool:
        """Whether ``node``'s executors return the same C for any order
        of the K rows (A's columns and B's rows permuted alike).

        An exact integer sum is order free, and so is one wrapped once
        (a single kc-block) or wrapped modulo the int64 container
        (``accmem_bits`` >= 64: modular addition commutes).  A wrapping
        AccMem over several kc-blocks is not -- permuting K moves
        products across the wrap points -- and a guarded GEMM is kept
        in the source order because fault injection targets packed-word
        positions.
        """
        if self._guarded:
            return False
        config = self._config(node)
        return (config is None
                or config.accmem_bits >= ACCMEM_CONTAINER_BITS
                or len(kblock_group_counts(config, k)) == 1)

    def bind(self, node: NodeSpec, label: str, panels: list[np.ndarray]
             ) -> list:
        """One executor per weight panel (conv group) of ``node``."""
        layer_index = self._quant_nodes
        self._quant_nodes += 1
        config = self._config(node)
        if self._guarded:
            return [_GuardedGemm(p, config, self.guards, self.gemm_backend,
                                 self.pack_cache, label, node.op,
                                 layer_index) for p in panels]
        if config is None:
            return [_RefGemm(p) for p in panels]
        return [_BoundGemm(p, config, self.gemm_backend, self.pack_cache,
                           label, node.op) for p in panels]


def _quant_params(node: NodeSpec) -> tuple[QuantParams, QuantParams]:
    """Activation (per-tensor, shipped scale) and weight (per-channel
    absmax) quantization of a quantized node -- the QAT forward's rule."""
    attrs = node.attrs
    act_qp = QuantParams(
        scale=attrs["act_scale"], zero_point=0.0,
        bits=attrs["act_bits"], signed=attrs["act_signed"],
    )
    w_scale = weight_absmax_scale(node.tensors["weight"],
                                  attrs["weight_bits"], channel_axis=0)
    wgt_qp = QuantParams(scale=w_scale, zero_point=0.0,
                         bits=attrs["weight_bits"], signed=True, axis=0)
    return act_qp, wgt_qp


class _ConvStep(_Step):
    """``quant_conv2d`` / ``conv2d`` with everything static precomputed.

    Per call: the input (quantized, for ``quant_conv2d``) lands in the
    lowering's channels-last halo buffer, all groups are lowered with one
    window copy, and each group's GEMM result is cast into its own column
    slice of one ``[M, Cout]`` float64 array.  Dequantization, bias and
    the fused epilogue then run in place on the ``(N, oh*ow*Cout)`` view
    of that array, against constants the lowering tiled to that width:
    a per-channel constant broadcast over channels-last memory would cut
    numpy's inner loop down to ``Cout`` elements.  ``k_order`` is
    :data:`K_ORDER_CHANNELS_LAST` when the bound executors are K-order
    free (:meth:`_QuantGemmBinder.k_order_free`) -- the weight panels'
    K rows are then permuted to match at compile time -- and
    :data:`K_ORDER_IM2ROW` otherwise, including every float conv, whose
    BLAS summation order must not change.

    ``kernel_rows`` is decided once, from static facts: stride 1, one
    group, the channels-last K order and a bound GEMM whose
    :attr:`_BoundGemm.block` is set.  Such a step copies the lowering's
    kernel-row panel instead of its im2row rows and sums one GEMM per
    kernel row (:meth:`_BoundGemm.sum_taps`).  That stays exact for the
    reason the fast kernel is: every tap product and every running sum
    is a partial sum of the block's products, bounded by the Eq. 5
    bound that chose the block's dtype.  Cycles, stats and the act/acc
    range taps are those of the one GEMM it replaces; at stride 1 every
    halo-buffer element lies in some window, so the panel and the rows
    have the same extrema.

    ``direct`` is decided once too, from the node alone: a 1x1 kernel,
    padding 0 and one group, for any backend, quantized or float.  Such
    a step writes only the input pixels its windows read,
    ``x[:, :, ::stride, ::stride]``, into a buffer that already is the
    im2row matrix (see :class:`_ConvLowering`), so it neither
    quantizes pixels no window reads nor copies the codes again.  Its
    GEMMs receive the same values in the same C-contiguous ``(M, K)``
    layout as a copied ``rows()[0]``, so outputs, stats and range taps
    do not change.  It takes precedence over ``kernel_rows``.
    """

    can_fold_bn = True

    def __init__(self, node: NodeSpec, label: str, input_ids: list[str],
                 binder: _QuantGemmBinder) -> None:
        super().__init__(label, input_ids)
        self.op = node.op
        self.stats_label = label
        self.quant = node.op == "quant_conv2d"
        self.backend = binder.backend
        attrs = node.attrs
        w = node.tensors["weight"]
        self.stride = attrs["stride"]
        self.kpad = attrs["padding"]
        self.groups = attrs["groups"]
        self.out_channels, cpg, self.kh, self.kw = w.shape
        self.cpg = cpg
        self.fpg = self.out_channels // self.groups
        self._bias = node.tensors.get("bias")
        self._out_scale = None
        self._lowerings: dict[tuple[int, ...], _ConvLowering] = {}
        self.k_order = K_ORDER_IM2ROW
        self.kernel_rows = False
        self.direct = (self.kh == self.kw == 1 and self.kpad == 0
                       and self.groups == 1)

        if self.quant:
            self.act_qp, wgt_qp = _quant_params(node)
            w_q = quantize(w, wgt_qp)
            # The dequantization scale, hoisted out of the per-call
            # product without changing a single bit of it.
            self._out_scale = (float(self.act_qp.scale)
                               * wgt_qp.scale[None, :])
            panels = [
                w_q[g * self.fpg:(g + 1) * self.fpg].reshape(self.fpg, -1).T
                for g in range(self.groups)
            ]
            if binder.k_order_free(node, cpg * self.kh * self.kw):
                self.k_order = K_ORDER_CHANNELS_LAST
                perm = channels_last_order(cpg, self.kh, self.kw)
                panels = [panel[perm] for panel in panels]
            self.gemms = binder.bind(node, label, panels)
            # Groups share config and K, hence one input dtype.
            self._act_dtype = self.gemms[0].input_dtype
            self.kernel_rows = (not self.direct
                                and self.stride == 1 and self.groups == 1
                                and self.k_order == K_ORDER_CHANNELS_LAST
                                and self.gemms[0].block is not None)
            self._quant_act = _ActQuantizer(self.act_qp, self._act_dtype)
        else:
            # Keep the exact view (reshape + transpose of the original
            # array): float matmul results can depend on the operand
            # memory layout BLAS sees, so we do not re-pack.
            self.panels = [
                w[g * self.fpg:(g + 1) * self.fpg].reshape(self.fpg, -1).T
                for g in range(self.groups)
            ]

    def _lowering(self, x_shape: tuple[int, ...]) -> _ConvLowering:
        low = self._lowerings.get(x_shape)
        if low is None:
            n, c, h, w = x_shape
            if c != self.cpg * self.groups:
                raise ValueError(
                    f"channel mismatch: input {c}, weight {self.cpg} x "
                    f"groups {self.groups}")
            dtype = self._act_dtype if self.quant else np.float64
            low = _ConvLowering(x_shape, self.kh, self.kw, self.stride,
                                self.kpad, self.groups, dtype, self.k_order,
                                self.kernel_rows, self.direct)
            reps = low.out_h * low.out_w
            low.out_scale = _tile(self._out_scale, reps)
            low.bias = _tile(self._bias, reps)
            low.epilogue = [
                fn.tiled(reps) if isinstance(fn, _BnEpilogue) else fn
                for fn in self.epilogue
            ]
            self._lowerings[x_shape] = low
        return low

    def __call__(self, arrays: list[np.ndarray],
                 result: InferenceResult) -> np.ndarray:
        x = arrays[0]
        low = self._lowering(x.shape)
        if low.direct:
            x = x[:, :, ::self.stride, ::self.stride]
        if self.quant:
            self._quant_act.into(x, low.interior)
        else:
            low.interior[...] = x
        if low.kernel_rows:
            panel = low.panel()
            acc = self.gemms[0].sum_taps(low.tap_views(panel), panel, result)
            del panel  # freed before the float64 output is allocated
            y = acc.astype(np.float64)
        else:
            y = np.empty((low.m, self.out_channels))
            rows = low.rows()
            for g in range(self.groups):
                cols = slice(g * self.fpg, (g + 1) * self.fpg)
                if self.quant:
                    y[:, cols] = self.gemms[g](rows[g], result)
                else:
                    np.matmul(rows[g], self.panels[g], out=y[:, cols])
        n = x.shape[0]
        wide = y.reshape(n, low.out_h * low.out_w * self.out_channels)
        if low.out_scale is not None:
            np.multiply(wide, low.out_scale, out=wide)
        if low.bias is not None:
            np.add(wide, low.bias, out=wide)
        out = rows_to_nchw(y, n, low.out_h, low.out_w)
        self._finish_in_place(wide, low.epilogue, out)
        return out


class _QuantLinearStep(_Step):
    """``quant_linear`` with quantized weights and scales baked in."""

    def __init__(self, node: NodeSpec, label: str, input_ids: list[str],
                 binder: _QuantGemmBinder) -> None:
        super().__init__(label, input_ids)
        self.op = node.op
        self.stats_label = label
        self.backend = binder.backend
        self.act_qp, wgt_qp = _quant_params(node)
        w_q_t = quantize(node.tensors["weight"], wgt_qp).T
        self._out_scale = float(self.act_qp.scale) * wgt_qp.scale
        self._bias = node.tensors.get("bias")
        self.gemms = binder.bind(node, label, [w_q_t])
        self._quant_act = _ActQuantizer(self.act_qp,
                                        self.gemms[0].input_dtype)

    def __call__(self, arrays: list[np.ndarray],
                 result: InferenceResult) -> np.ndarray:
        acc = self.gemms[0](self._quant_act(arrays[0]), result)
        y = np.multiply(acc, self._out_scale, dtype=np.float64)
        if self._bias is not None:
            np.add(y, self._bias, out=y)
        return self._finish_in_place(y)


# -- the plan -----------------------------------------------------------------


@dataclass
class PlanInfo:
    """Compile-time report: what the plan hoisted and fused."""

    nodes: int
    steps: int
    folded_batchnorms: int
    fused_activations: int
    bound_executors: int
    prepacked_panels: int
    backend: str
    gemm_backend: str
    accmem_bits: int = DEFAULT_ACCMEM_BITS
    fusions: list[str] = field(default_factory=list)
    #: Whether the fusion pass ran; recorded so a shared-plan attach
    #: can recompile with the exact same structure.
    fuse: bool = True
    #: The guard level the plan's steps were built for (``"off"`` for
    #: every plan :func:`compile_graph` returns).
    guard_level: str = "off"

    def as_dict(self) -> dict:
        return asdict(self)


def _observe_out(label: str, out: np.ndarray) -> None:
    observe_range(label, "out", out)


class _NodeFence:
    """A guarded plan's per-node output check: NaN/Inf fence, after the
    range tap (which stays off while a fault injector is armed).

    ``unfenced`` names the nodes whose fence cannot be the first to
    fire -- the finite-preserving ops (``_FINITE_OPS``), whose inputs
    are fenced nodes or the graph input that :meth:`GraphPlan.run`
    fences first -- so only their range is observed.
    """

    def __init__(self, observe: bool, unfenced: frozenset[str]) -> None:
        self.observe = observe
        self.unfenced = unfenced

    def __call__(self, label: str, out: np.ndarray) -> None:
        if self.observe:
            observe_range(label, "out", out)
        if label not in self.unfenced:
            check_finite(label, out)


class GraphPlan:
    """A compiled graph: call :meth:`run` with a batch, get a result.

    Plans snapshot the graph's weights at compile time; mutating the
    graph afterwards (e.g. a fault campaign) requires recompiling.  Not
    thread-safe -- see the module docstring.  ``tap`` (chosen at compile
    time, ``None`` when nothing watches) sees every step's output; the
    steps themselves report the nodes they absorbed (:class:`_Step`).

    ``run`` drops each value once its last consumer has run
    (``_drops``, fixed here from the steps' wiring), so a step's output
    is freed as early as the graph allows; the input and the graph
    output are never dropped.  A guarded plan (its tap a
    :class:`_NodeFence`) checks the input for NaN/Inf once, before the
    first step, without observing its range.
    """

    def __init__(self, graph: Optional[GraphModel], steps: list[_Step],
                 info: PlanInfo, pack_cache: PackingCache,
                 tap: Optional[Callable[[str, np.ndarray], None]] = None
                 ) -> None:
        self.graph = graph
        self.steps = steps
        self.info = info
        self.pack_cache = pack_cache
        self._tap = tap
        self._fence_input = isinstance(tap, _NodeFence)
        self._drops = _last_uses(steps)

    def release_source(self) -> None:
        """Drop the reference to the source graph.

        ``run()`` never touches it; worker processes that attached a
        shared plan call this so the float64 source weights (about as
        large as the panels themselves) do not stay resident per
        worker.  A released plan cannot be re-exported or verified
        against its graph (``repro check --verify-plan``).
        """
        self.graph = None

    def run(self, x: np.ndarray) -> InferenceResult:
        """Execute the plan on a batch; NCHW for conv models."""
        result = InferenceResult(output=np.asarray(x, dtype=np.float64),
                                 guard_level=self.info.guard_level)
        if self._fence_input:
            check_finite("input", result.output)
        values: dict[str, np.ndarray] = {"input": result.output}
        label = "input"
        tap = self._tap
        for step, drops in zip(self.steps, self._drops):
            try:
                arrays = [values[name] for name in step.input_ids]
            except KeyError as exc:
                raise GraphError(
                    f"step {step.label} references unknown tensor {exc}"
                ) from None
            label = step.label
            out = step(arrays, result)
            if tap is not None:
                tap(label, out)
            values[label] = out
            for name in drops:
                del values[name]
        result.output = values[label]
        return result

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class ids for a batch (softmax-free argmax)."""
        return self.run(x).output.argmax(axis=1)

    @property
    def pack_stats(self):
        return self.pack_cache.stats

    def describe(self) -> dict:
        return self.info.as_dict()


def _last_uses(steps: list[_Step]) -> list[tuple[str, ...]]:
    """Per step, the values :meth:`GraphPlan.run` drops after it runs.

    A value goes after its last consumer, or after its producer when
    nothing reads it; ``"input"`` and the graph output (the last step's
    value) stay.
    """
    last: dict[str, int] = {}
    for i, step in enumerate(steps):
        for name in step.input_ids:
            last[name] = i
        last[step.label] = i
    last.pop("input", None)
    if steps:
        last.pop(steps[-1].label, None)
    drops: list[list[str]] = [[] for _ in steps]
    for name, i in last.items():
        drops[i].append(name)
    return [tuple(names) for names in drops]


def _effective_wiring(graph: GraphModel
                      ) -> tuple[list[str], list[list[str]]]:
    """Labels and resolved input lists, validated.

    Nodes without explicit ``inputs`` consume the previous node's output
    (the Sequential chain); ``"input"`` names the model input.  Rejects
    id collisions (which would silently overwrite a tensor) and inputs
    lists of the wrong arity for the op, and ops no step implements.
    """
    labels = graph.effective_ids()
    seen: set[str] = set()
    for i, (node, label) in enumerate(zip(graph, labels)):
        if label == "input":
            raise GraphError(
                f"node {i} ({node.op}) uses the reserved id 'input'")
        if label in seen:
            raise GraphError(
                f"duplicate node id {label!r} at node {i} ({node.op}); "
                f"its output would overwrite an earlier tensor")
        seen.add(label)
    inputs_of: list[list[str]] = []
    prev = "input"
    for i, (node, label) in enumerate(zip(graph, labels)):
        if node.op not in SUPPORTED_OPS:
            raise GraphError(f"unsupported op: {node.op}")
        eff = list(node.inputs) if node.inputs else [prev]
        arity = 2 if node.op in _BINARY_OPS else 1
        if len(eff) != arity:
            raise GraphError(
                f"node {i} ({node.op}) takes {arity} input"
                f"{'s' if arity > 1 else ''}, got {len(eff)}")
        inputs_of.append(eff)
        prev = label
    return labels, inputs_of


#: Ops consuming two upstream tensors; every other op takes one.
_BINARY_OPS = frozenset({"add", "channel_scale"})

#: Ops a step can absorb into its epilogue (elementwise, single-input).
_FUSABLE_ACTS = frozenset({"relu", "relu6"})

#: Ops whose output is finite whenever their input is: the NaN/Inf
#: fence after one is skipped.
_FINITE_OPS = frozenset({"relu", "relu6", "max_pool2d", "flatten",
                         "identity"})


def compile_graph(graph: GraphModel, *, backend: str = "numpy",
                  gemm_backend: str = "auto",
                  accmem_bits: int = DEFAULT_ACCMEM_BITS,
                  pack_cache: Optional[PackingCache] = None,
                  fuse: bool = True) -> GraphPlan:
    """Compile ``graph`` into a :class:`GraphPlan` for ``backend``.

    ``backend`` is ``"numpy"`` (integer reference) or ``"mixgemm"``
    (u-engine simulator with per-layer cycle accounting);
    ``gemm_backend`` picks ``"event"``, ``"fast"`` or ``"auto"`` within
    the simulator (see :mod:`repro.core.backend`).

    Fusion is conservative and therefore exact: a follower is absorbed
    only when it has a single input, that input is the immediately
    preceding step's output, and no other node consumes it.  BN folds
    restrict further to conv producers that have not fused an activation
    yet (BN after a non-linearity is not a conv epilogue).  Everything
    else becomes its own step running the shared :mod:`~repro.runtime.ops`
    kernels, so an unfusable graph still compiles -- it just keeps more
    steps.  Every quantized GEMM layer compiles at the Table-I
    ``SIM_BLOCKING``.  Wiring errors (id collisions, a binary op without
    exactly two inputs, any other op without exactly one) and unknown
    ops raise :class:`~repro.runtime.graph.GraphError` here, before any
    run.
    """
    return _compile(graph, backend, gemm_backend, accmem_bits,
                    pack_cache, fuse, guards=None)


def _compile(graph: GraphModel, backend: str, gemm_backend: str,
             accmem_bits: int, pack_cache: Optional[PackingCache],
             fuse: bool, guards: Optional[_Guards]) -> GraphPlan:
    """:func:`compile_graph`, plus the guarded build the engine uses."""
    if backend not in ("numpy", "mixgemm"):
        raise GraphError(f"unknown backend: {backend}")
    if gemm_backend not in EXECUTION_BACKENDS:
        raise GraphError(f"unknown gemm backend: {gemm_backend}")
    if pack_cache is None:
        pack_cache = PackingCache()
    labels, inputs_of = _effective_wiring(graph)
    consumers = Counter(name for eff in inputs_of for name in eff)

    binder = _QuantGemmBinder(backend, gemm_backend, accmem_bits,
                              pack_cache, guards)
    steps: list[_Step] = []
    folded_bn = fused_act = 0
    fusions: list[str] = []
    for node, label, eff in zip(graph, labels, inputs_of):
        if fuse and steps:
            tail = steps[-1]
            mergeable = (len(eff) == 1 and eff[0] == tail.label
                         and consumers[eff[0]] == 1)
            if mergeable and node.op == "batchnorm2d" and tail.can_fold_bn:
                fusions.append(f"{tail.label}+{node.op}->{label}")
                tail.fuse(node, label)
                folded_bn += 1
                continue
            if mergeable and node.op in _FUSABLE_ACTS:
                fusions.append(f"{tail.label}+{node.op}->{label}")
                tail.fuse(node, label)
                fused_act += 1
                continue
        if node.op in ("quant_conv2d", "conv2d"):
            steps.append(_ConvStep(node, label, eff, binder))
        elif node.op == "quant_linear":
            steps.append(_QuantLinearStep(node, label, eff, binder))
        else:
            steps.append(_GenericStep(node, label, eff))

    bound = prepacked = 0
    for step in steps:
        for gemm in getattr(step, "gemms", ()):
            if gemm.config is not None:
                bound += 1
                prepacked += int(gemm.prepacked)

    observe = backend == "mixgemm" and (guards is None
                                        or guards.injector is None)
    if guards is not None and guards.rank >= 1:
        tap = _NodeFence(observe, frozenset(
            label for node, label in zip(graph, labels)
            if node.op in _FINITE_OPS))
    else:
        tap = _observe_out if observe else None
    for step in steps:
        step.tap = tap
    info = PlanInfo(
        nodes=len(graph), steps=len(steps), folded_batchnorms=folded_bn,
        fused_activations=fused_act, bound_executors=bound,
        prepacked_panels=prepacked, backend=backend,
        gemm_backend=gemm_backend, accmem_bits=accmem_bits,
        fusions=fusions, fuse=fuse,
        guard_level=guards.level if guards is not None else "off",
    )
    return GraphPlan(graph, steps, info, pack_cache, tap)


# -- zero-copy shared-memory export/attach ------------------------------------


class PlanShareError(ReproError, RuntimeError):
    """Raised when a plan cannot be exported to / attached from shared
    memory (segment unavailable, manifest mismatch, tampered payload)."""


#: Alignment of each array payload inside the segment; keeps every
#: rebound view on a cache-line boundary (numpy does not require it,
#: BLAS kernels prefer it).
_SHM_ALIGN = 64


@dataclass(frozen=True)
class _SharedArraySpec:
    """Manifest entry for one constant array inside the segment."""

    key: str
    offset: int
    shape: tuple[int, ...]
    dtype: str
    order: str
    digest: str


@dataclass(frozen=True)
class SharedPlanHandle:
    """Picklable ticket for rebuilding a plan on the shared segment.

    Carries everything :func:`attach_plan` needs in another process:
    the segment name, the per-array manifest (offset/shape/dtype/
    storage order/content fingerprint) and the compile parameters that
    deterministically reproduce the plan structure from the serialized
    graph.
    """

    segment: str
    arrays: tuple[_SharedArraySpec, ...]
    total_bytes: int
    graph_json: str
    backend: str
    gemm_backend: str
    accmem_bits: int
    fuse: bool


def _array_order(arr: np.ndarray) -> str:
    """The storage order to reproduce in the segment.

    Float matmul results can depend on the memory layout BLAS sees
    (the non-quant conv panels and ``linear`` weights are transposed
    views, i.e. F-contiguous), so the exporter preserves C-vs-F order
    instead of flattening everything to C.
    """
    if arr.flags.f_contiguous and not arr.flags.c_contiguous:
        return "F"
    return "C"


def _gemm_array_slots(prefix: str, gemm: _BoundGemm) -> Iterator[
        tuple[str, np.ndarray, Callable[[np.ndarray], None]]]:
    """``(key, array, setter)`` for one bound GEMM's baked operands."""
    if gemm.mode == "fast":
        blocks = gemm.kernel.blocks
        for i in range(len(blocks)):
            def _set_block(arr: np.ndarray, idx: int = i) -> None:
                sl, _, dtype = blocks[idx]
                blocks[idx] = (sl, arr, dtype)
            yield f"{prefix}.block{i}", blocks[i][1], _set_block
    else:
        def _set_b(arr: np.ndarray, g: _BoundGemm = gemm) -> None:
            g._b = arr
        yield f"{prefix}.b", gemm._b, _set_b


def _attr_slots(obj: object, attrs: tuple[str, ...], prefix: str
                ) -> Iterator[
        tuple[str, np.ndarray, Callable[[np.ndarray], None]]]:
    for attr in attrs:
        value = getattr(obj, attr, None)
        if isinstance(value, np.ndarray):
            def _set(arr: np.ndarray, o: object = obj,
                     a: str = attr) -> None:
                setattr(o, a, arr)
            yield f"{prefix}.{attr}", value, _set


def iter_plan_arrays(plan: GraphPlan) -> Iterator[
        tuple[str, np.ndarray, Callable[[np.ndarray], None]]]:
    """Deterministic ``(key, array, setter)`` walk of a plan's constants.

    Covers every ndarray the plan baked in at compile time: fast-mode
    kc-blocks, event-mode weight operands, float panels, output scales,
    biases, folded-BN epilogue constants and generic-step constants.
    The walk order is a pure function of the plan structure, so two
    deterministic compiles of the same graph yield the same sequence --
    which is what lets :func:`attach_plan` line the local compile up
    against the exporter's manifest entry by entry.
    """
    for si, step in enumerate(plan.steps):
        base = f"step{si}:{step.label}"
        yield from _attr_slots(step, ("_out_scale", "_bias"), base)
        fn = getattr(step, "_fn", None)
        if isinstance(fn, (_BnEpilogue, _LinearFn)):
            yield from _attr_slots(
                fn, ("scale", "shift", "weight_t", "bias"), f"{base}.fn")
        for ei, ep in enumerate(step.epilogue):
            if isinstance(ep, _BnEpilogue):
                yield from _attr_slots(ep, ("scale", "shift"),
                                       f"{base}.ep{ei}")
        for gi, gemm in enumerate(getattr(step, "gemms", [])):
            yield from _gemm_array_slots(f"{base}.g{gi}", gemm)
        panels = getattr(step, "panels", None)
        if panels is not None:
            for pi in range(len(panels)):
                def _set_panel(arr: np.ndarray, s: _Step = step,
                               idx: int = pi) -> None:
                    s.panels[idx] = arr
                yield f"{base}.panel{pi}", panels[pi], _set_panel


def _segment_view(shm: shared_memory.SharedMemory,
                  spec: _SharedArraySpec) -> np.ndarray:
    return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                      buffer=shm.buf, offset=spec.offset,
                      order=spec.order)


class SharedPlan:
    """Owner side of an exported plan: segment + manifest + lifecycle.

    The exporting process is the segment's owner: it must ``close()``
    its mapping **and** ``unlink()`` the segment when serving stops
    (the context manager does both).  Attached processes use
    :class:`AttachedPlan`, which only ever closes.
    """

    def __init__(self, handle: SharedPlanHandle,
                 shm: shared_memory.SharedMemory) -> None:
        self.handle = handle
        self._shm = shm
        self._closed = False
        self._unlinked = False

    @property
    def segment(self) -> str:
        return self.handle.segment

    @property
    def buf(self):
        return self._shm.buf

    def close(self) -> None:
        """Release this process's mapping (idempotent)."""
        if not self._closed:
            self._closed = True
            self._shm.close()

    def unlink(self) -> None:
        """Remove the segment from the system (idempotent).

        Call after every attached process has closed; a mapping that is
        still open keeps its memory alive until it too closes.
        """
        if not self._unlinked:
            self._unlinked = True
            self._shm.unlink()

    def __enter__(self) -> "SharedPlan":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        self.unlink()


class AttachedPlan:
    """Worker side: a plan rebuilt on the shared segment.

    ``plan`` is a full :class:`GraphPlan` whose constant arrays are
    read-only views of the exporter's segment.  ``close()`` detaches
    the mapping; it never unlinks -- the exporter owns the segment.
    """

    def __init__(self, plan: GraphPlan,
                 shm: shared_memory.SharedMemory,
                 handle: SharedPlanHandle) -> None:
        self.plan = plan
        self.handle = handle
        self._shm = shm
        self._closed = False

    @property
    def buf(self):
        return self._shm.buf

    def close(self) -> None:
        """Detach from the segment (idempotent).  The plan must not be
        run afterwards: its views point into the unmapped buffer."""
        if not self._closed:
            self._closed = True
            self._shm.close()

    def __enter__(self) -> "AttachedPlan":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def export_plan(plan: GraphPlan) -> SharedPlan:
    """Serialize ``plan``'s constant arrays into one shared segment.

    Every array from :func:`iter_plan_arrays` is copied into a single
    ``SharedMemory`` segment (64-byte aligned, storage order preserved)
    and the plan is **rebound in place** onto read-only views of the
    segment -- after export the calling process itself serves from the
    shared copy, so the private originals become garbage.  Returns the
    owning :class:`SharedPlan`; its picklable ``handle`` travels to
    worker processes for :func:`attach_plan`.
    """
    if plan.graph is None:
        raise PlanShareError(
            "cannot export a plan whose source graph was released")
    slots = list(iter_plan_arrays(plan))
    offsets: list[int] = []
    total = 0
    for _, arr, _ in slots:
        total = -(-total // _SHM_ALIGN) * _SHM_ALIGN
        offsets.append(total)
        total += arr.nbytes
    shm: Optional[shared_memory.SharedMemory] = None
    ok = False
    try:
        shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        specs: list[_SharedArraySpec] = []
        for offset, (key, arr, setter) in zip(offsets, slots):
            spec = _SharedArraySpec(
                key=key, offset=offset, shape=tuple(arr.shape),
                dtype=arr.dtype.str, order=_array_order(arr),
                digest=PackingCache.fingerprint(arr))
            view = _segment_view(shm, spec)
            view[...] = arr
            view.flags.writeable = False
            setter(view)
            specs.append(spec)
        # Cached lowerings hold tiled copies of the private originals;
        # dropping them makes the next call re-tile from the segment.
        for step in plan.steps:
            if isinstance(step, _ConvStep):
                step._lowerings.clear()
        handle = SharedPlanHandle(
            segment=shm.name, arrays=tuple(specs), total_bytes=total,
            graph_json=plan.graph.to_json(),
            backend=plan.info.backend,
            gemm_backend=plan.info.gemm_backend,
            accmem_bits=plan.info.accmem_bits,
            fuse=plan.info.fuse)
        ok = True
        return SharedPlan(handle, shm)
    except (OSError, ValueError) as exc:
        raise PlanShareError(
            f"shared-memory export failed: {exc}") from exc
    finally:
        if not ok and shm is not None:
            shm.close()
            shm.unlink()


def attach_plan(handle: SharedPlanHandle) -> AttachedPlan:
    """Rebuild the exported plan in this process, zero-copy.

    The graph is recompiled locally (deterministic, so the plan
    structure matches the exporter's), then every constant array is
    verified against the manifest fingerprint -- both the segment
    payload (tamper/staleness detection) and the locally compiled
    array (graph/version skew detection) -- and rebound to a read-only
    view of the segment.  The transient local copies are dropped, so
    the steady-state per-process footprint of the plan's constants is
    the scratch state only; call
    :meth:`GraphPlan.release_source` afterwards to also drop the
    rebuilt float64 graph weights.
    """
    graph = GraphModel.from_json(handle.graph_json)
    plan = compile_graph(graph, backend=handle.backend,
                         gemm_backend=handle.gemm_backend,
                         accmem_bits=handle.accmem_bits,
                         fuse=handle.fuse)
    slots = list(iter_plan_arrays(plan))
    if len(slots) != len(handle.arrays):
        raise PlanShareError(
            f"manifest lists {len(handle.arrays)} arrays but the local "
            f"compile produced {len(slots)}: graph or version skew")
    shm: Optional[shared_memory.SharedMemory] = None
    ok = False
    try:
        shm = shared_memory.SharedMemory(name=handle.segment)
        for spec, (key, arr, setter) in zip(handle.arrays, slots):
            if spec.key != key:
                raise PlanShareError(
                    f"manifest entry {spec.key!r} does not line up with "
                    f"local plan array {key!r}: graph or version skew")
            if PackingCache.fingerprint(arr) != spec.digest:
                raise PlanShareError(
                    f"locally compiled array {key!r} does not match the "
                    f"exported fingerprint: the graph differs from the "
                    f"one the segment was exported from")
            view = _segment_view(shm, spec)
            if PackingCache.fingerprint(view) != spec.digest:
                raise PlanShareError(
                    f"segment payload for {key!r} does not match its "
                    f"manifest fingerprint: tampered or stale segment")
            view.flags.writeable = False
            setter(view)
        ok = True
        return AttachedPlan(plan, shm, handle)
    except FileNotFoundError as exc:
        raise PlanShareError(
            f"shared segment {handle.segment!r} does not exist "
            f"(exporter gone or already unlinked)") from exc
    finally:
        if not ok and shm is not None:
            shm.close()


def plan_share_stats(plan: GraphPlan, buf=None) -> dict:
    """How many of the plan's constant bytes alias ``buf``.

    With ``buf`` (a shared segment's buffer) the split proves the
    zero-copy property deterministically: ``plan_bytes_shared`` counts
    arrays whose storage lives inside the segment,
    ``plan_bytes_private`` whatever is process-local.  Without ``buf``
    everything counts as private.  This is the measure the serving
    benchmark reports per worker -- unlike RSS deltas it cannot be
    confounded by allocator or interpreter noise.
    """
    base = size = 0
    if buf is not None:
        raw = np.frombuffer(buf, dtype=np.uint8)
        base = int(raw.__array_interface__["data"][0])
        size = raw.nbytes
    arrays = total = shared = 0
    for _, arr, _ in iter_plan_arrays(plan):
        arrays += 1
        total += arr.nbytes
        addr = int(arr.__array_interface__["data"][0])
        if buf is not None and base <= addr \
                and addr + arr.nbytes <= base + size:
            shared += arr.nbytes
    return {
        "arrays": arrays,
        "plan_bytes_total": total,
        "plan_bytes_shared": shared,
        "plan_bytes_private": total - shared,
    }
