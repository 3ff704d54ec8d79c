"""Ahead-of-time compilation of deployment graphs (the paper's AOT stage).

The uncompiled :class:`~repro.runtime.engine.InferenceEngine` pays graph
overhead on **every** ``run()`` call: static weights are re-quantized,
per-channel absmax scales recomputed, conv geometry re-derived, operand
matrices re-validated and a fresh :class:`~repro.core.gemm.MixGemm`
executor built per GEMM.  That is the right shape for a debugger and for
the hardened/fault-injection paths (which must observe the per-call
pipeline), but it turns steady-state serving into a metadata benchmark.
The BLIS lineage Mix-GEMM builds on amortizes exactly this work: packing
and layout decisions happen once per deployment, the hot loop is pure
arithmetic.

:func:`compile_graph` performs that amortization once and returns a
:class:`GraphPlan`:

* static weights are quantized once and their per-channel scales cached;
* ``batchnorm2d`` nodes whose sole input is a preceding conv become part
  of that conv's epilogue (the BN ``scale``/``shift`` arrays are
  precomputed constants), and elementwise ``relu``/``relu6`` nodes fuse
  into the producing step's epilogue;
* conv lowering state (output geometry, the padded scratch buffer) is
  cached per input shape, replacing the per-call ``np.pad``;
* event-backend weight panels are pre-packed into the shared
  :class:`~repro.core.packcache.PackingCache`, and one reusable
  executor is bound per (config, layer) instead of one per call;
* fast-backend weight operands are validated once and baked into a
  :class:`~repro.core.fastpath.FastGemmKernel` -- the same kernel
  :func:`~repro.core.fastpath.run_fastpath` runs -- which splits them
  into kc-blocks in the narrowest exact type, with per-call cycles
  served by the memoized :func:`~repro.core.fastpath.fastpath_timing`
  oracle.  When every block of a layer is float32 and the AccMem does
  not wrap, the layer never widens: activation codes, the im2col
  buffer and the GEMM result all stay float32 until the epilogue's
  float64 dequantization.

Bit-exactness is a design invariant, not an aspiration: every float
operation the plan executes is the *same numpy expression in the same
order* as the uncompiled engine (shared kernels live in
:mod:`repro.runtime.ops`), the GEMM runs the very kernel
:func:`~repro.core.fastpath.run_fastpath` runs (exact integers in a
float32 container convert to the identical float64), and the
BN/activation "fusion" hoists only *constant computation* -- the
per-element float sequence is untouched.  ``tests/runtime/test_plan.py``
asserts equality (outputs and per-layer cycles), never closeness.

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

from collections import Counter
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Callable, Iterator, Optional

import numpy as np

from repro.core.errors import ReproError

from repro.core.backend import resolve_backend
from repro.core.config import (
    DEFAULT_ACCMEM_BITS,
    EXECUTION_BACKENDS,
    MixGemmConfig,
)
from repro.core.fastpath import (
    FastGemmKernel,
    fastpath_applicable,
    fastpath_timing,
)
from repro.core.gemm import KernelCosts, MixGemm
from repro.core.packcache import PackingCache
from repro.core.packing import _check_matrix
from repro.nn.functional_quant import weight_absmax_scale
from repro.nn.im2col import rows_to_nchw
from repro.quant.affine import QuantParams, quantize

from . import ops
from .engine import SIM_BLOCKING, InferenceResult, LayerStats
from .graph import GraphError, GraphModel, NodeSpec
from .observe import observe_range


# -- bound GEMM executors -----------------------------------------------------


class _ActQuantizer:
    """Per-tensor activation quantizer with the constants pre-resolved.

    Evaluates the same numpy expression as
    :func:`repro.quant.affine.quantize` -- divide, add zero-point,
    round, clip, cast -- with the broadcasting/`value_range` bookkeeping
    hoisted to construction, so the result is bitwise identical and the
    per-call cost is five ufuncs.  The final cast goes to the consuming
    GEMM's ``input_dtype``: the clipped codes are small integers, so the
    float32 cast of the fast path is exactly as lossless as int64.
    """

    def __init__(self, qp: QuantParams, dtype: type) -> None:
        self.qp = qp
        self.dtype = dtype
        self._scale = qp._expand(qp.scale, 1)
        self._zp = qp._expand(qp.zero_point, 1)
        self._qmin = qp.qmin
        self._qmax = qp.qmax

    def __call__(self, x: np.ndarray) -> np.ndarray:
        q = (x / self._scale + self._zp).round()
        return q.clip(self._qmin, self._qmax).astype(self.dtype)


class _BoundGemm:
    """One (config, layer, group) GEMM with the weight operand baked in.

    The backend decision is taken **once** at bind time with the same
    rules the engine applies per call (guard-free compile implies no
    hooks, so :func:`~repro.core.backend.resolve_backend` sees the
    identical inputs).  The fast mode holds the
    :class:`~repro.core.fastpath.FastGemmKernel`
    :func:`~repro.core.fastpath.run_fastpath` would build, with the
    weight-side validation and the timing lookup hoisted out of the
    call.  The event mode keeps one reusable
    :class:`~repro.core.gemm.MixGemm`; per-call cycles are the engine
    clock *delta*, which equals a fresh executor's count because the
    micro-kernel timing is translation invariant (see the
    :mod:`repro.core.fastpath` module docstring).
    """

    def __init__(self, b: np.ndarray, config: MixGemmConfig,
                 gemm_backend: str, pack_cache: PackingCache) -> None:
        self.config = config
        self.k, self.n = b.shape
        self._costs = KernelCosts()
        decision = resolve_backend(gemm_backend, config,
                                   emulate_datapath=False)
        self.mode = ("fast" if decision.is_fast
                     and fastpath_applicable(config, self.k) is None
                     else "event")
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

    def __call__(self, a: np.ndarray) -> tuple[np.ndarray, int]:
        """``(C, cycles)`` for ``a`` already in the config's range.

        The A-side ``_check_matrix`` is provably redundant here --
        ``quantize`` clipped the activations into exactly the
        ``(bw_a, signed_a)`` range this config declares -- so the fast
        mode skips it; values and cycles are unaffected.  ``C`` holds
        exact integers, in a float container when the kernel's
        ``acc_dtype`` is one.
        """
        if self.mode == "event":
            engine = self._executor.engine
            before = engine.now
            res = self._executor.gemm(a, self._b)
            return res.c, res.cycles - before
        m = a.shape[0]
        cycles = self._cycles_by_m.get(m)
        if cycles is None:
            cycles = fastpath_timing(self.config, self._costs, m, self.n,
                                     self.k).cycles
            self._cycles_by_m[m] = cycles
        return self.kernel(a), cycles


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

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return ops.apply_batchnorm(y, self.scale, self.shift)


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
    """Base compiled step: one output label plus a fused epilogue chain."""

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
        self.label = label

    def _finish(self, y: np.ndarray) -> np.ndarray:
        for fn in self.epilogue:
            y = fn(y)
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
        return self._finish(self._fn(*arrays))


class _ConvLowering:
    """Per-input-shape conv lowering state (geometry + gather indices).

    Reproduces :func:`~repro.nn.im2col.im2row` value for value while
    replacing its per-call ``np.pad`` + strided-view copy with a
    persistent zero-halo scratch buffer (interior refreshed per call)
    and one precomputed gather: the index matrix is built by running the
    *same* windowing arithmetic over a position array once at compile
    time, so ``rows[i, j]`` picks exactly the element ``im2row`` would.
    Not thread-safe (the buffer is shared across calls) -- one plan per
    worker.
    """

    def __init__(self, x_shape: tuple[int, ...], kh: int, kw: int,
                 stride: int, padding: int, dtype) -> None:
        n, c, h, w = x_shape
        self.h, self.w, self.padding = h, w, padding
        self.out_h = (h + 2 * padding - kh) // stride + 1
        self.out_w = (w + 2 * padding - kw) // stride + 1
        self.m = n * self.out_h * self.out_w
        pad_shape = (n, c, h + 2 * padding, w + 2 * padding)
        self._buf = np.zeros(pad_shape, dtype=dtype)
        self._flat = self._buf.reshape(-1)
        positions = np.arange(self._buf.size,
                              dtype=np.intp).reshape(pad_shape)
        sn, sc, sh, sw = positions.strides
        windows = np.lib.stride_tricks.as_strided(
            positions, shape=(n, c, self.out_h, self.out_w, kh, kw),
            strides=(sn, sc, sh * stride, sw * stride, sh, sw),
            writeable=False,
        )
        self._idx = np.ascontiguousarray(
            windows.transpose(0, 2, 3, 1, 4, 5).reshape(self.m,
                                                        c * kh * kw))

    def rows(self, x: np.ndarray) -> np.ndarray:
        p = self.padding
        self._buf[:, :, p:p + self.h, p:p + self.w] = x
        return np.take(self._flat, self._idx)


class _ConvStep(_Step):
    """``quant_conv2d`` / ``conv2d`` with everything static precomputed."""

    can_fold_bn = True

    def __init__(self, node: NodeSpec, label: str, input_ids: list[str], *,
                 backend: str, gemm_backend: str, accmem_bits: int,
                 pack_cache: PackingCache) -> None:
        super().__init__(label, input_ids)
        self.op = node.op
        self.stats_label = label
        self.quant = node.op == "quant_conv2d"
        self.backend = backend
        attrs = node.attrs
        w = node.tensors["weight"]
        self.stride = attrs["stride"]
        self.kpad = attrs["padding"]
        self.groups = attrs["groups"]
        self.out_channels, cpg, self.kh, self.kw = w.shape
        self.cpg = cpg
        self.fpg = self.out_channels // self.groups
        bias = node.tensors.get("bias")
        self._bias = bias.reshape(1, -1, 1, 1) if bias is not None else None
        self._lowerings: dict[tuple[int, ...], _ConvLowering] = {}

        if self.quant:
            self.act_qp = QuantParams(
                scale=attrs["act_scale"], zero_point=0.0,
                bits=attrs["act_bits"], signed=attrs["act_signed"],
            )
            w_scale = weight_absmax_scale(w, attrs["weight_bits"],
                                          channel_axis=0)
            wgt_qp = QuantParams(scale=w_scale, zero_point=0.0,
                                 bits=attrs["weight_bits"], signed=True,
                                 axis=0)
            w_q = quantize(w, wgt_qp)
            # Same expression the engine evaluates per call; hoisting it
            # does not change a single bit of the product below.
            self._out_scale = (float(self.act_qp.scale)
                               * wgt_qp.scale[None, :])
            panels = [
                w_q[g * self.fpg:(g + 1) * self.fpg].reshape(self.fpg, -1).T
                for g in range(self.groups)
            ]
            if backend == "mixgemm":
                config = MixGemmConfig(
                    bw_a=attrs["act_bits"], bw_b=attrs["weight_bits"],
                    signed_a=attrs["act_signed"], signed_b=True,
                    blocking=SIM_BLOCKING, accmem_bits=accmem_bits,
                )
                self.gemms = [_BoundGemm(p, config, gemm_backend,
                                         pack_cache) for p in panels]
                # Groups share config and K, hence one input dtype.
                self._act_dtype = self.gemms[0].input_dtype
            else:
                self.panels = panels
                self._act_dtype = np.int64
            self._quant_act = _ActQuantizer(self.act_qp, self._act_dtype)
        else:
            # Keep the engine's exact view (reshape + transpose of the
            # original array): float matmul results can depend on the
            # operand memory layout BLAS sees, so we do not re-pack.
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
            low = _ConvLowering((n, self.cpg, h, w), self.kh, self.kw,
                                self.stride, self.kpad, dtype)
            self._lowerings[x_shape] = low
        return low

    def __call__(self, arrays: list[np.ndarray],
                 result: InferenceResult) -> np.ndarray:
        x = arrays[0]
        low = self._lowering(x.shape)
        src = self._quant_act(x) if self.quant else x
        outs = []
        for g in range(self.groups):
            rows = low.rows(src[:, g * self.cpg:(g + 1) * self.cpg])
            if self.quant and self.backend == "mixgemm":
                gemm = self.gemms[g]
                observe_range(self.stats_label, "act", rows)
                c, cycles = gemm(rows)
                observe_range(self.stats_label, "acc", c)
                result.layer_stats.append(LayerStats(
                    op=self.op, config=gemm.config.name,
                    macs=rows.shape[0] * gemm.n * gemm.k, cycles=cycles,
                    layer=self.stats_label,
                ))
                outs.append(c)
            else:
                outs.append(rows @ self.panels[g])
        acc = np.concatenate(outs, axis=1)
        if self.quant:
            y = acc.astype(np.float64) * self._out_scale
        else:
            y = acc
        y = rows_to_nchw(y, x.shape[0], low.out_h, low.out_w)
        if self._bias is not None:
            y = y + self._bias
        return self._finish(y)


class _QuantLinearStep(_Step):
    """``quant_linear`` with quantized weights and scales baked in."""

    def __init__(self, node: NodeSpec, label: str, input_ids: list[str], *,
                 backend: str, gemm_backend: str, accmem_bits: int,
                 pack_cache: PackingCache) -> None:
        super().__init__(label, input_ids)
        self.op = node.op
        self.stats_label = label
        self.backend = backend
        attrs = node.attrs
        w = node.tensors["weight"]
        self.act_qp = QuantParams(
            scale=attrs["act_scale"], zero_point=0.0,
            bits=attrs["act_bits"], signed=attrs["act_signed"],
        )
        w_scale = weight_absmax_scale(w, attrs["weight_bits"],
                                      channel_axis=0)
        wgt_qp = QuantParams(scale=w_scale, zero_point=0.0,
                             bits=attrs["weight_bits"], signed=True, axis=0)
        w_q_t = quantize(w, wgt_qp).T
        self._out_scale = float(self.act_qp.scale) * wgt_qp.scale
        self._bias = node.tensors.get("bias")
        if backend == "mixgemm":
            config = MixGemmConfig(
                bw_a=attrs["act_bits"], bw_b=attrs["weight_bits"],
                signed_a=attrs["act_signed"], signed_b=True,
                blocking=SIM_BLOCKING, accmem_bits=accmem_bits,
            )
            self.gemm = _BoundGemm(w_q_t, config, gemm_backend, pack_cache)
            act_dtype = self.gemm.input_dtype
        else:
            self.panel = w_q_t
            act_dtype = np.int64
        self._quant_act = _ActQuantizer(self.act_qp, act_dtype)

    def __call__(self, arrays: list[np.ndarray],
                 result: InferenceResult) -> np.ndarray:
        x_q = self._quant_act(arrays[0])
        if self.backend == "mixgemm":
            observe_range(self.stats_label, "act", x_q)
            acc, cycles = self.gemm(x_q)
            observe_range(self.stats_label, "acc", acc)
            result.layer_stats.append(LayerStats(
                op=self.op, config=self.gemm.config.name,
                macs=x_q.shape[0] * self.gemm.n * self.gemm.k,
                cycles=cycles, layer=self.stats_label,
            ))
        else:
            acc = x_q @ self.panel
        y = acc.astype(np.float64) * self._out_scale
        if self._bias is not None:
            y = y + self._bias
        return self._finish(y)


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

    def as_dict(self) -> dict:
        return {
            "nodes": self.nodes, "steps": self.steps,
            "folded_batchnorms": self.folded_batchnorms,
            "fused_activations": self.fused_activations,
            "bound_executors": self.bound_executors,
            "prepacked_panels": self.prepacked_panels,
            "backend": self.backend, "gemm_backend": self.gemm_backend,
            "accmem_bits": self.accmem_bits,
            "fusions": list(self.fusions),
            "fuse": self.fuse,
        }


class GraphPlan:
    """A compiled graph: call :meth:`run` like the engine, minus the tax.

    Plans snapshot the graph's weights at compile time; mutating the
    graph afterwards (e.g. a fault campaign) requires recompiling.  Not
    thread-safe -- see the module docstring.
    """

    def __init__(self, graph: Optional[GraphModel], steps: list[_Step],
                 info: PlanInfo, pack_cache: PackingCache) -> None:
        self.graph = graph
        self.steps = steps
        self.info = info
        self.pack_cache = pack_cache

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
        """Execute the compiled plan; mirrors ``InferenceEngine.run``."""
        result = InferenceResult(output=np.asarray(x, dtype=np.float64),
                                 guard_level="off")
        values: dict[str, np.ndarray] = {"input": result.output}
        label = "input"
        for step in self.steps:
            try:
                arrays = [values[name] for name in step.input_ids]
            except KeyError as exc:
                raise GraphError(
                    f"step {step.label} references unknown tensor {exc}"
                ) from None
            label = step.label
            out = step(arrays, result)
            if self.info.backend == "mixgemm":
                observe_range(label, "out", out)
            values[label] = out
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


def _effective_wiring(graph: GraphModel
                      ) -> tuple[list[str], list[list[str]]]:
    """Labels and resolved input lists, engine-identical, validated."""
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
    for node, label in zip(graph, labels):
        inputs_of.append(list(node.inputs) if node.inputs else [prev])
        prev = label
    return labels, inputs_of


#: Ops a step can absorb into its epilogue (elementwise, single-input).
_FUSABLE_ACTS = frozenset({"relu", "relu6"})


def compile_graph(graph: GraphModel, *, backend: str = "numpy",
                  gemm_backend: str = "auto",
                  accmem_bits: int = DEFAULT_ACCMEM_BITS,
                  pack_cache: Optional[PackingCache] = None,
                  fuse: bool = True) -> GraphPlan:
    """Compile ``graph`` into a :class:`GraphPlan` for ``backend``.

    Fusion is conservative and therefore exact: a follower is absorbed
    only when it has a single input, that input is the immediately
    preceding step's output, and no other node consumes it.  BN folds
    restrict further to conv producers that have not fused an activation
    yet (BN after a non-linearity is not a conv epilogue).  Everything
    else becomes its own step running the shared :mod:`~repro.runtime.ops`
    kernels, so an unfusable graph still compiles -- it just keeps more
    steps.  Every quantized GEMM layer compiles at the Table-I
    ``SIM_BLOCKING``.
    """
    if backend not in ("numpy", "mixgemm"):
        raise GraphError(f"unknown backend: {backend}")
    if gemm_backend not in EXECUTION_BACKENDS:
        raise GraphError(f"unknown gemm backend: {gemm_backend}")
    if pack_cache is None:
        pack_cache = PackingCache()
    labels, inputs_of = _effective_wiring(graph)
    consumers = Counter(name for eff in inputs_of for name in eff)

    gemm_kwargs = dict(backend=backend, gemm_backend=gemm_backend,
                       accmem_bits=accmem_bits, pack_cache=pack_cache)
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
            steps.append(_ConvStep(node, label, eff, **gemm_kwargs))
        elif node.op == "quant_linear":
            steps.append(_QuantLinearStep(node, label, eff, **gemm_kwargs))
        else:
            steps.append(_GenericStep(node, label, eff))

    bound = prepacked = 0
    for step in steps:
        for gemm in getattr(step, "gemms", []):
            bound += 1
            prepacked += int(gemm.prepacked)
        gemm = getattr(step, "gemm", None)
        if gemm is not None:
            bound += 1
            prepacked += int(gemm.prepacked)

    info = PlanInfo(
        nodes=len(graph), steps=len(steps), folded_batchnorms=folded_bn,
        fused_activations=fused_act, bound_executors=bound,
        prepacked_panels=prepacked, backend=backend,
        gemm_backend=gemm_backend, accmem_bits=accmem_bits,
        fusions=fusions, fuse=fuse,
    )
    return GraphPlan(graph, steps, info, pack_cache)


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
        gemm = getattr(step, "gemm", None)
        if gemm is not None:
            yield from _gemm_array_slots(f"{base}.gemm", gemm)
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
