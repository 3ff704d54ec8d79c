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

The engine is a thin facade over :class:`~repro.runtime.plan.GraphPlan`:
every :meth:`InferenceEngine.run` executes a plan built by
:mod:`repro.runtime.plan`.  It also hosts the hardened-runtime machinery
(:mod:`repro.robustness`): a ``guard_level`` knob arms integrity checks
from NaN/Inf fences up to per-layer shadow verification against the
numpy reference, a ``fault_plan`` wires a deterministic fault injector
into the simulated datapath, and :class:`InferenceResult` reports every
detection and recovery, so a run doubles as a reliability report.
Armed, the same fused plan runs with guarded GEMM steps and a per-node
NaN/Inf fence (see the plan module's "Guarded execution" section); the
graph-level checks run here, before the plan.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import DEFAULT_ACCMEM_BITS, EXECUTION_BACKENDS
from repro.core.packcache import PackCacheStats, PackingCache
from repro.robustness.faults import FaultInjector, FaultPlan
from repro.robustness.guards import (
    TensorVault,
    guard_rank,
    static_precheck,
)
from repro.robustness.recovery import (
    FaultEvent,
    RecoveryPolicy,
    ShadowVerifier,
)

from .graph import GraphError, GraphModel
from .plan import (
    SIM_BLOCKING,
    GraphPlan,
    InferenceResult,
    LayerStats,
    _compile,
    _Guards,
)

__all__ = ["InferenceEngine", "InferenceResult", "LayerStats",
           "SIM_BLOCKING"]


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
    """

    def __init__(self, graph: GraphModel, *,
                 backend: str = "numpy",
                 guard_level: str = "off",
                 fault_plan: Optional[FaultPlan] = None,
                 recovery: Optional[RecoveryPolicy] = None,
                 accmem_bits: int = DEFAULT_ACCMEM_BITS,
                 gemm_backend: str = "auto") -> None:
        if backend not in ("numpy", "mixgemm"):
            raise GraphError(f"unknown backend: {backend}")
        if gemm_backend not in EXECUTION_BACKENDS:
            raise GraphError(f"unknown gemm backend: {gemm_backend}")
        self.graph = graph
        self.backend = backend
        self.gemm_backend = gemm_backend
        # One cache for the whole deployment: static weights are packed
        # once per graph and reused across layers, batches and repeated
        # run() calls (the BLIS amortization the paper assumes).
        self._pack_cache = PackingCache()
        self.accmem_bits = accmem_bits
        self.guard_level = guard_level
        rank = guard_rank(guard_level)
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self.injector = (FaultInjector(fault_plan)
                         if fault_plan is not None else None)
        # The vault snapshots the *clean* graph at bind time; injected
        # weight corruption happens later, at run().
        self._vault = TensorVault.snapshot(graph) if rank >= 2 else None
        self._guards = None
        if rank >= 1 or self.injector is not None:
            self._guards = _Guards(
                level=guard_level, recovery=self.recovery,
                injector=self.injector,
                shadow=(ShadowVerifier()
                        if rank >= 3 and backend == "mixgemm" else None))
        self._plan: Optional[GraphPlan] = None

    # -- public API ------------------------------------------------------------

    @property
    def plan(self) -> GraphPlan:
        """The plan :meth:`run` executes, compiled on first use.

        Always fused; armed guards or a fault plan add guarded GEMM
        steps and the per-node fence.  While a fault plan is armed,
        every :meth:`run` recompiles it, because the injector corrupts
        the shipped weights between runs.
        """
        if self._plan is None:
            self._plan = _compile(
                self.graph, self.backend, self.gemm_backend,
                self.accmem_bits, self._pack_cache,
                fuse=True, guards=self._guards)
        return self._plan

    def run(self, x: np.ndarray) -> InferenceResult:
        """Execute the graph on a batch; NCHW for conv models.

        Nodes without explicit ``inputs`` consume the previous node's
        output (the Sequential chain); DAG graphs wire branches via node
        ids, with ``"input"`` naming the model input.
        """
        restored: list[FaultEvent] = []
        if self.injector is not None:
            # A fault campaign over a graph that violates its static
            # contracts measures nothing: wraps/crashes would be the
            # model's fault, not the injected fault's.  Prove the graph
            # clean first (skippable via recovery.static_precheck).
            if self.recovery.static_precheck:
                static_precheck(self.graph, accmem_bits=self.accmem_bits,
                                blocking=SIM_BLOCKING)
            self.injector.corrupt_weights(self.graph)
            self._plan = None
        if self._vault is not None:
            restored = self._restore_tensors()
        result = self.plan.run(x)
        if restored:
            _merge_by_node(result, restored, self.graph.effective_ids())
        return result

    def _restore_tensors(self) -> list[FaultEvent]:
        """Weight-vault check: restore corrupted tensors before use."""
        events = []
        for i, (node, label) in enumerate(zip(self.graph,
                                              self.graph.effective_ids())):
            for name in self._vault.verify_and_restore(i, node):
                events.append(FaultEvent(
                    layer=label, op=node.op, detected_by="weight",
                    action="restored",
                    message=(f"tensor {name!r} failed its bind-time CRC "
                             f"and was restored from the vault replica"),
                ))
        return events

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class ids for a batch (softmax-free argmax)."""
        return self.run(x).output.argmax(axis=1)

    @property
    def pack_stats(self) -> PackCacheStats:
        """Packing-cache accounting (``packs`` = actual pack calls)."""
        return self._pack_cache.stats


def _merge_by_node(result: InferenceResult, restored: list[FaultEvent],
                   labels: list[str]) -> None:
    """Fold the vault's restore events into the plan's reliability log.

    The log lists events in node order, a node's weight restore ahead of
    its GEMM detections, exactly as if each node had been checked just
    before it ran; ``sorted`` is stable, so same-node events keep their
    relative order.
    """
    order = {label: i for i, label in enumerate(labels)}
    result.fault_events = sorted(restored + result.fault_events,
                                 key=lambda e: order[e.layer])
    recovered = {e.layer for e in restored} | set(result.recovered_layers)
    result.recovered_layers = sorted(recovered, key=order.__getitem__)
