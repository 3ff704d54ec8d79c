"""Inference engine over the deployment IR (the ONNX-Runtime stage).

Executes a :class:`~repro.runtime.graph.GraphModel` with a pluggable GEMM
backend:

* ``backend="numpy"`` -- fast integer reference;
* ``backend="mixgemm"`` -- the bit-exact u-engine simulator; per-layer
  cycle counts are collected so a deployment run doubles as a
  performance measurement (what the paper's FPGA runs produce).

Quantized layers replay the exact training-time arithmetic: activations
quantize per-tensor with the learned scale shipped in the graph, weights
per-channel with absmax scales recomputed from the shipped weights (the
same rule QAT trained against), zero-points are zero -- so the integer
pipeline reproduces the QAT forward bit for bit (asserted in tests).

The engine also hosts the hardened-runtime machinery
(:mod:`repro.robustness`): a ``guard_level`` knob arms integrity checks
from NaN/Inf fences up to per-layer shadow verification against the
numpy reference, a ``fault_plan`` wires a deterministic fault injector
into the simulated datapath, and :class:`InferenceResult` reports every
detection and recovery, so a run doubles as a reliability report.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.config import (
    BlockingParams,
    DEFAULT_ACCMEM_BITS,
    EXECUTION_BACKENDS,
    MixGemmConfig,
)
from repro.core.gemm import GemmResult, MixGemm, reference_gemm
from repro.core.packcache import PackCacheStats, PackingCache
from repro.nn.functional_quant import weight_absmax_scale
from repro.nn.im2col import conv_geometry, im2row, rows_to_nchw
from repro.quant.affine import QuantParams, quantize
from repro.robustness.errors import GuardError, ReliabilityWarning
from repro.robustness.faults import FaultInjector, FaultPlan
from repro.robustness.guards import (
    GUARD_LEVELS,
    PackGuard,
    TensorVault,
    check_finite,
    guard_rank,
    static_precheck,
)
from repro.robustness.recovery import (
    FaultEvent,
    RecoveryPolicy,
    ShadowVerifier,
)

from . import ops
from .graph import GraphError, GraphModel, NodeSpec
from .observe import observe_range

#: Blocking used by the simulator backend for runtime layers: small tiles
#: keep the event-driven engine fast on laptop-scale models.  Public so
#: the static contract checker (``repro.analysis``) can reason about the
#: exact per-block accumulation depth the engine will use.
SIM_BLOCKING = BlockingParams(mc=16, nc=16, kc=64)

#: Backwards-compatible alias (pre-analysis name).
_SIM_BLOCKING = SIM_BLOCKING


@dataclass
class LayerStats:
    """Per-quantized-layer execution record (mixgemm backend only).

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


class InferenceEngine:
    """Run a deployment graph on a chosen GEMM backend.

    Parameters
    ----------
    graph:
        The deployment IR to execute.
    backend:
        ``"numpy"`` (integer reference) or ``"mixgemm"`` (u-engine
        simulator with per-layer cycle accounting).
    guard_level:
        One of :data:`~repro.robustness.guards.GUARD_LEVELS`
        (``off`` / ``light`` / ``standard`` / ``full``); see
        :mod:`repro.robustness.guards` for what each level arms.
    fault_plan:
        Optional :class:`~repro.robustness.faults.FaultPlan`; when given,
        a :class:`~repro.robustness.faults.FaultInjector` is wired into
        the packed-operand and AccMem paths (and shipped weights) so the
        guard stack can be exercised deterministically.
    recovery:
        Escalation policy for detections
        (:class:`~repro.robustness.recovery.RecoveryPolicy`); its
        ``static_precheck`` flag controls whether fault-injection runs
        contract-check the graph first (see :meth:`run`).
    accmem_bits:
        Two's-complement width of the simulated AccMem accumulator
        registers (default: the paper's 64-bit slots).  The static
        checker's ``ACC-OVERFLOW`` verdicts are computed against this
        same width, so the two stay in agreement by construction.
    gemm_backend:
        Execution backend *within* the mixgemm simulator: ``"event"``,
        ``"fast"`` or ``"auto"`` (see :mod:`repro.core.backend`).  With
        ``auto``, guard-free inference rides the vectorized fast path;
        arming fault injection, pack guards or shadow verification
        forces per-call event fidelity automatically.  Ignored by the
        numpy backend.
    compiled:
        Compile the graph into a :class:`~repro.runtime.plan.GraphPlan`
        on first use and serve ``run()`` from it (bit-exact, much
        faster).  Arming guards or a fault plan transparently falls
        back to the uncompiled per-call path -- those features need to
        observe the per-call pipeline the plan hoists away.
    """

    def __init__(self, graph: GraphModel, *,
                 backend: str = "numpy",
                 guard_level: str = "off",
                 fault_plan: Optional[FaultPlan] = None,
                 recovery: Optional[RecoveryPolicy] = None,
                 accmem_bits: int = DEFAULT_ACCMEM_BITS,
                 gemm_backend: str = "auto",
                 compiled: bool = False) -> None:
        if backend not in ("numpy", "mixgemm"):
            raise GraphError(f"unknown backend: {backend}")
        if gemm_backend not in EXECUTION_BACKENDS:
            raise GraphError(f"unknown gemm backend: {gemm_backend}")
        self.graph = graph
        self.backend = backend
        self.gemm_backend = gemm_backend
        # One cache for the whole deployment: static weights are packed
        # once per graph and reused across layers, batches and repeated
        # infer() calls (the BLIS amortization the paper assumes).
        self._pack_cache = PackingCache()
        self.accmem_bits = accmem_bits
        self.guard_level = guard_level
        self._guard_rank = guard_rank(guard_level)
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self.injector = (FaultInjector(fault_plan)
                         if fault_plan is not None else None)
        # The vault snapshots the *clean* graph at bind time; injected
        # weight corruption happens later, at run().
        self._vault = (TensorVault.snapshot(graph)
                       if self._guard_rank >= 2 else None)
        self._shadow = (ShadowVerifier()
                        if self._guard_rank >= 3 and backend == "mixgemm"
                        else None)
        self._current_label = ""
        self._compiled = compiled
        self._plan = None

    #: Ops consuming more than one upstream tensor.
    _BINARY_OPS = frozenset({"add", "channel_scale"})

    # -- public API ------------------------------------------------------------

    def compile(self, *, fuse: bool = True):
        """Compile the graph into a reusable plan and adopt it for runs.

        Returns the :class:`~repro.runtime.plan.GraphPlan`; subsequent
        :meth:`run` calls are served from it whenever the robustness
        machinery is disarmed (``guard_level="off"``, no fault plan).
        The plan shares this engine's packing cache, so ``pack_stats``
        keeps accounting for both paths.
        """
        from .plan import compile_graph

        self._plan = compile_graph(
            self.graph, backend=self.backend,
            gemm_backend=self.gemm_backend, accmem_bits=self.accmem_bits,
            pack_cache=self._pack_cache, fuse=fuse,
        )
        return self._plan

    def _plan_usable(self) -> bool:
        """Compiled serving is only exact when nothing per-call is armed.

        Guards, shadow verification and fault injection all observe the
        per-call pipeline (fresh quantization, packing, executors) that
        compilation hoists away, so their presence transparently routes
        back to the uncompiled path -- PR-1 robustness semantics stay
        untouched.
        """
        if not (self._compiled or self._plan is not None):
            return False
        if self.injector is not None or self._guard_rank >= 1:
            return False
        if self._plan is None:
            self.compile()
        return True

    def run(self, x: np.ndarray) -> InferenceResult:
        """Execute the graph on a batch; NCHW for conv models.

        Nodes without explicit ``inputs`` consume the previous node's
        output (the Sequential chain); DAG graphs wire branches via node
        ids, with ``"input"`` naming the model input.
        """
        if self._plan_usable():
            return self._plan.run(x)
        self._validate_node_ids()
        if self.injector is not None:
            # A fault campaign over a graph that violates its static
            # contracts measures nothing: wraps/crashes would be the
            # model's fault, not the injected fault's.  Prove the graph
            # clean first (skippable via recovery.static_precheck).
            if self.recovery.static_precheck:
                static_precheck(self.graph, accmem_bits=self.accmem_bits,
                                blocking=SIM_BLOCKING)
            self.injector.corrupt_weights(self.graph)
        result = InferenceResult(output=np.asarray(x, dtype=np.float64),
                                 guard_level=self.guard_level)
        values: dict[str, np.ndarray] = {"input": result.output}
        prev = "input"
        quant_calls = 0
        for i, node in enumerate(self.graph):
            label = node.id or f"n{i}"
            self._current_label = label
            if node.op in ("quant_conv2d", "quant_linear"):
                if self.injector is not None:
                    self.injector.begin_layer(quant_calls)
                quant_calls += 1
            if self._vault is not None and node.tensors:
                self._verify_tensors(i, node, label, result)
            input_ids = node.inputs or [prev]
            try:
                arrays = [values[name] for name in input_ids]
            except KeyError as exc:
                raise GraphError(
                    f"node {node.op} references unknown tensor {exc}"
                ) from None
            out = self._dispatch(node, arrays, result)
            # Range-sanitizer tap: only the mixgemm backend realizes the
            # finite-AccMem wrap semantics the static intervals model
            # (the numpy reference accumulates unwrapped), and injected
            # faults legitimately escape any clean-run interval.
            if self.backend == "mixgemm" and self.injector is None:
                observe_range(label, "out", out)
            if self._guard_rank >= 1:
                check_finite(label, out)
            prev = label
            values[prev] = out
        result.output = values[prev]
        return result

    def _validate_node_ids(self) -> None:
        """Reject id collisions that would silently overwrite tensors."""
        seen: set[str] = set()
        for i, node in enumerate(self.graph):
            nid = node.id or f"n{i}"
            if nid == "input":
                raise GraphError(
                    f"node {i} ({node.op}) uses the reserved id 'input'"
                )
            if nid in seen:
                raise GraphError(
                    f"duplicate node id {nid!r} at node {i} ({node.op}); "
                    f"its output would overwrite an earlier tensor"
                )
            seen.add(nid)

    def _verify_tensors(self, index: int, node: NodeSpec, label: str,
                        result: InferenceResult) -> None:
        """Weight-vault check: restore corrupted tensors before use."""
        for name in self._vault.verify_and_restore(index, node):
            result.fault_events.append(FaultEvent(
                layer=label, op=node.op, detected_by="weight",
                action="restored",
                message=(f"tensor {name!r} failed its bind-time CRC and "
                         f"was restored from the vault replica"),
            ))
            if label not in result.recovered_layers:
                result.recovered_layers.append(label)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class ids for a batch (softmax-free argmax)."""
        return self.run(x).output.argmax(axis=1)

    @property
    def pack_stats(self) -> PackCacheStats:
        """Packing-cache accounting (``packs`` = actual pack calls)."""
        return self._pack_cache.stats

    # -- op implementations -------------------------------------------------------

    def _dispatch(self, node: NodeSpec, arrays: list[np.ndarray],
                  result: InferenceResult) -> np.ndarray:
        handler = getattr(self, f"_op_{node.op}", None)
        if handler is None:
            raise GraphError(f"unsupported op: {node.op}")
        if node.op in self._BINARY_OPS:
            if len(arrays) != 2:
                raise GraphError(
                    f"{node.op} needs exactly 2 inputs, got {len(arrays)}"
                )
            return handler(node, arrays, result)
        if len(arrays) != 1:
            raise GraphError(
                f"{node.op} takes one input, got {len(arrays)}"
            )
        return handler(node, arrays[0], result)

    # --- binary ops (DAG topologies) ---

    def _op_add(self, node: NodeSpec, arrays: list[np.ndarray],
                result: InferenceResult) -> np.ndarray:
        """Elementwise residual addition."""
        a, b = arrays
        if a.shape != b.shape:
            raise GraphError(
                f"add shape mismatch: {a.shape} vs {b.shape}"
            )
        return a + b

    def _op_channel_scale(self, node: NodeSpec,
                          arrays: list[np.ndarray],
                          result: InferenceResult) -> np.ndarray:
        """Squeeze-excite gating: NCHW features x (N, C) gates."""
        x, s = arrays
        if s.shape != x.shape[:2]:
            raise GraphError(
                f"channel_scale gates {s.shape} do not match "
                f"features {x.shape}"
            )
        return ops.channel_scale(x, s)

    def _op_sigmoid(self, node, x, result):
        return ops.sigmoid(x)

    # --- quantized linear algebra ---

    def _quant_qparams(self, node: NodeSpec
                       ) -> tuple[QuantParams, QuantParams]:
        attrs = node.attrs
        act_qp = QuantParams(
            scale=attrs["act_scale"], zero_point=0.0,
            bits=attrs["act_bits"], signed=attrs["act_signed"],
        )
        w = node.tensors["weight"]
        w_scale = weight_absmax_scale(w, attrs["weight_bits"],
                                      channel_axis=0)
        wgt_qp = QuantParams(
            scale=w_scale, zero_point=0.0,
            bits=attrs["weight_bits"], signed=True, axis=0,
        )
        return act_qp, wgt_qp

    def _quant_weights(self, node: NodeSpec,
                       wgt_qp: QuantParams) -> np.ndarray:
        """Quantize a node's shipped weights for one uncompiled call.

        Deliberately *per call*: fault campaigns corrupt the shipped
        float weights between runs, and the vault restores them, so the
        uncompiled path must observe the tensor as it is now.  Static
        deployments hoist this through :meth:`compile` instead; the
        REP007 lint rule keeps ``quantize`` of weight tensors out of the
        per-call op handlers so the split stays explicit.
        """
        return quantize(node.tensors["weight"], wgt_qp)

    def _integer_gemm(self, x_q: np.ndarray, w_q: np.ndarray,
                      act_bits: int, weight_bits: int,
                      act_signed: bool, result: InferenceResult,
                      op: str) -> np.ndarray:
        if self.backend == "numpy":
            return x_q @ w_q
        config = MixGemmConfig(
            bw_a=act_bits, bw_b=weight_bits,
            signed_a=act_signed, signed_b=True,
            blocking=SIM_BLOCKING, accmem_bits=self.accmem_bits,
        )
        pack_guard = PackGuard(config) if self._guard_rank >= 2 else None
        reference = (self._shadow.reference(x_q, w_q)
                     if self._shadow is not None else None)
        label = self._current_label
        detected = False
        attempts = self.recovery.max_retries + 1
        for attempt in range(attempts):
            retrying = attempt < attempts - 1
            executor = MixGemm(config, emulate_datapath=False,
                               fault_hook=self.injector,
                               pack_guard=pack_guard,
                               backend=self.gemm_backend,
                               pack_cache=self._pack_cache)
            try:
                gemm: GemmResult = executor.gemm(x_q, w_q)
            except GuardError as exc:
                detected = True
                result.fault_events.append(FaultEvent(
                    layer=label, op=op, detected_by=exc.guard,
                    action="retried" if retrying else "fallback",
                    message=str(exc),
                ))
                if retrying:
                    continue
                return self._degrade(x_q, w_q, result, label, op, reference)
            if (reference is not None
                    and not self._shadow.matches(gemm.c, reference)):
                detected = True
                result.fault_events.append(FaultEvent(
                    layer=label, op=op, detected_by="shadow",
                    action="retried" if retrying else "fallback",
                    message=("simulated output disagrees with the "
                             "integer reference"),
                ))
                if retrying:
                    continue
                return self._degrade(x_q, w_q, result, label, op, reference)
            if self.injector is None and not detected:
                observe_range(label, "act", x_q)
                observe_range(label, "acc", gemm.c)
            result.layer_stats.append(LayerStats(
                op=op, config=config.name, macs=gemm.macs,
                cycles=gemm.cycles, layer=label,
            ))
            if detected and label not in result.recovered_layers:
                result.recovered_layers.append(label)
            return gemm.c
        raise AssertionError("unreachable")  # pragma: no cover

    def _degrade(self, x_q: np.ndarray, w_q: np.ndarray,
                 result: InferenceResult, label: str, op: str,
                 reference: Optional[np.ndarray]) -> np.ndarray:
        """Retries exhausted: degrade to the reference backend or raise."""
        if not self.recovery.fallback:
            raise GuardError(
                f"layer {label} ({op}) failed every guarded attempt and "
                f"fallback is disabled",
                guard="recovery",
            )
        value = reference if reference is not None else reference_gemm(
            x_q, w_q)
        if label not in result.recovered_layers:
            result.recovered_layers.append(label)
        if self.recovery.warn:
            warnings.warn(ReliabilityWarning(
                f"layer {label} ({op}) fell back to the numpy reference "
                f"after exhausting {self.recovery.max_retries} retries"
            ), stacklevel=3)
        return value

    def _op_quant_linear(self, node: NodeSpec, x: np.ndarray,
                         result: InferenceResult) -> np.ndarray:
        act_qp, wgt_qp = self._quant_qparams(node)
        x_q = quantize(x, act_qp)
        w_q = self._quant_weights(node, wgt_qp)
        acc = self._integer_gemm(
            x_q, w_q.T, node.attrs["act_bits"], node.attrs["weight_bits"],
            node.attrs["act_signed"], result, "quant_linear",
        )
        y = acc.astype(np.float64) * (float(act_qp.scale) * wgt_qp.scale)
        bias = node.tensors.get("bias")
        return y + bias if bias is not None else y

    def _op_quant_conv2d(self, node: NodeSpec, x: np.ndarray,
                         result: InferenceResult) -> np.ndarray:
        act_qp, wgt_qp = self._quant_qparams(node)
        w = node.tensors["weight"]
        attrs = node.attrs
        geo = conv_geometry(x.shape, w.shape, attrs["stride"],
                            attrs["padding"], attrs["groups"])
        x_q = quantize(x, act_qp)
        w_q = self._quant_weights(node, wgt_qp)
        groups = attrs["groups"]
        cpg = geo.in_channels // groups
        fpg = geo.out_channels // groups
        outs = []
        for g in range(groups):
            rows = im2row(
                x_q[:, g * cpg:(g + 1) * cpg],
                geo.kernel_h, geo.kernel_w, attrs["stride"],
                attrs["padding"],
            )
            wg = w_q[g * fpg:(g + 1) * fpg].reshape(fpg, -1).T
            outs.append(self._integer_gemm(
                rows, wg, attrs["act_bits"], attrs["weight_bits"],
                attrs["act_signed"], result, "quant_conv2d",
            ))
        acc = np.concatenate(outs, axis=1)
        y = acc.astype(np.float64) * (float(act_qp.scale)
                                      * wgt_qp.scale[None, :])
        y = rows_to_nchw(y, geo.batch, geo.out_h, geo.out_w)
        bias = node.tensors.get("bias")
        if bias is not None:
            y = y + bias.reshape(1, -1, 1, 1)
        return y

    # --- float ops ---

    def _op_conv2d(self, node: NodeSpec, x: np.ndarray,
                   result: InferenceResult) -> np.ndarray:
        w = node.tensors["weight"]
        attrs = node.attrs
        geo = conv_geometry(x.shape, w.shape, attrs["stride"],
                            attrs["padding"], attrs["groups"])
        groups = attrs["groups"]
        cpg = geo.in_channels // groups
        fpg = geo.out_channels // groups
        outs = []
        for g in range(groups):
            rows = im2row(x[:, g * cpg:(g + 1) * cpg], geo.kernel_h,
                          geo.kernel_w, attrs["stride"], attrs["padding"])
            outs.append(rows @ w[g * fpg:(g + 1) * fpg].reshape(fpg, -1).T)
        y = rows_to_nchw(np.concatenate(outs, axis=1), geo.batch,
                         geo.out_h, geo.out_w)
        bias = node.tensors.get("bias")
        if bias is not None:
            y = y + bias.reshape(1, -1, 1, 1)
        return y

    def _op_linear(self, node: NodeSpec, x: np.ndarray,
                   result: InferenceResult) -> np.ndarray:
        y = x @ node.tensors["weight"].T
        bias = node.tensors.get("bias")
        return y + bias if bias is not None else y

    def _op_batchnorm2d(self, node: NodeSpec, x: np.ndarray,
                        result: InferenceResult) -> np.ndarray:
        scale, shift = ops.batchnorm_params(node.tensors,
                                            node.attrs["eps"])
        return ops.apply_batchnorm(x, scale, shift)

    def _op_relu(self, node, x, result):
        return ops.relu(x)

    def _op_relu6(self, node, x, result):
        return ops.relu6(x)

    def _op_silu(self, node, x, result):
        return ops.silu(x)

    def _op_max_pool2d(self, node, x, result):
        return ops.max_pool2d(x, node.attrs["kernel"],
                              node.attrs["stride"])

    def _op_avg_pool2d(self, node, x, result):
        return ops.avg_pool2d(x, node.attrs["kernel"],
                              node.attrs["stride"])

    def _op_global_avg_pool2d(self, node, x, result):
        return ops.global_avg_pool2d(x)

    def _op_flatten(self, node, x, result):
        return ops.flatten(x)

    def _op_identity(self, node, x, result):
        return x
