"""Shadow verification and the detect -> retry -> fallback escalation.

The repo's two GEMM backends -- the numpy integer reference and the
bit-exact u-engine simulator -- agree bit for bit on a healthy machine
(asserted by the tier-1 suite).  That duality is an exploitable
redundancy: running the reference alongside the simulator turns *any*
output-corrupting fault in the simulated datapath into a detectable
mismatch, no matter which bit flipped.

:class:`ShadowVerifier` wraps the comparison; :class:`RecoveryPolicy`
fixes the escalation the inference engine follows when a guard or the
shadow trips:

1. **retry** the layer (a transient fault -- the model used by the fault
   injector -- does not recur, and re-packing refreshes the u-vectors);
2. after ``max_retries`` failed attempts, **fall back** to the reference
   backend's result for that layer and keep the run alive;
3. emit a structured :class:`~repro.robustness.errors.ReliabilityWarning`
   so operators see the degradation without the run dying.

Every step is recorded as a :class:`FaultEvent` on the
:class:`~repro.runtime.engine.InferenceResult`, so an inference run
doubles as a reliability report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FaultEvent:
    """One detection (and what the runtime did about it)."""

    layer: str          # effective node id of the affected layer
    op: str             # node op ("quant_conv2d", ...)
    detected_by: str    # "checksum" | "range" | "finite" | "weight" | "shadow"
    action: str         # "retried" | "fallback" | "restored" | "raised"
    message: str = ""


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the engine escalates when a guard trips.

    ``max_retries`` re-executions per layer before degrading;
    ``fallback`` chooses between degrading to the reference backend and
    raising the detection to the caller; ``warn`` controls the
    :class:`~repro.robustness.errors.ReliabilityWarning` on fallback;
    ``static_precheck`` makes fault-injection runs contract-check the
    graph first (:func:`repro.robustness.guards.static_precheck`) so a
    campaign never measures a model that was broken to begin with.
    """

    max_retries: int = 1
    fallback: bool = True
    warn: bool = True
    static_precheck: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")


@dataclass(frozen=True)
class BreakerPolicy:
    """When the serving circuit breaker trips and how it recovers.

    The breaker watches per-batch :class:`FaultEvent` records coming out
    of guarded inference runs: ``failure_threshold`` *consecutive*
    faulty batches open the circuit, after which the worker pool serves
    from the clean numpy reference backend (responses carry degraded
    metadata) instead of hammering a datapath that keeps tripping its
    guards.  After ``cooldown_s`` the breaker goes half-open and lets a
    single probe batch through the primary backend: a clean probe closes
    the circuit, a faulty one re-opens it with the cooldown multiplied
    by ``backoff`` (capped at ``max_cooldown_s``) -- classic exponential
    backoff so a persistently faulty deployment converges to rare,
    cheap probes.
    """

    failure_threshold: int = 3
    cooldown_s: float = 0.25
    backoff: float = 2.0
    max_cooldown_s: float = 30.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if self.max_cooldown_s < self.cooldown_s:
            raise ValueError("max_cooldown_s must be >= cooldown_s")


class ShadowVerifier:
    """Cross-checks a simulated layer output against the reference.

    The reference is the same integer GEMM the numpy backend would have
    produced; agreement must be exact because both sides compute exact
    integer arithmetic.
    """

    def __init__(self) -> None:
        self.checked = 0
        self.mismatched = 0

    def reference(self, x_q: np.ndarray, w_q: np.ndarray) -> np.ndarray:
        return np.asarray(x_q, dtype=np.int64) @ np.asarray(
            w_q, dtype=np.int64)

    def matches(self, simulated: np.ndarray,
                reference: np.ndarray) -> bool:
        self.checked += 1
        ok = bool(np.array_equal(simulated, reference))
        if not ok:
            self.mismatched += 1
        return ok
