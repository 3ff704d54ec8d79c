"""Reliability layer: fault injection, integrity guards, recovery.

The paper assumes a trusted SW kernel library; edge deployments cannot.
This package makes the reproduction's reliability *testable*:

* :mod:`~repro.robustness.faults` -- seeded bit-flip injection into
  packed u-vectors, AccMem slots and shipped weights, plus campaign
  orchestration (``repro faultsim``);
* :mod:`~repro.robustness.guards` -- pack-time checksums, accumulator
  range guards, NaN/Inf fences and the weight vault, behind the
  engine's ``guard_level`` knob;
* :mod:`~repro.robustness.recovery` -- shadow verification against the
  numpy integer reference with a retry -> fallback -> warning
  escalation;
* :mod:`~repro.robustness.errors` -- :class:`GuardError` and friends on
  the shared :class:`~repro.core.errors.ReproError` base.
"""

from .errors import (
    OVERLOAD_REASONS,
    FaultPlanError,
    GuardError,
    OverloadError,
    ReliabilityWarning,
    ReproError,
)
from .faults import (
    FAULT_SITES,
    CampaignReport,
    FaultCampaign,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    TrialResult,
    demo_graph,
    demo_input,
)
from .guards import (
    GUARD_LEVELS,
    PackGuard,
    TensorVault,
    accumulator_bound,
    check_finite,
    checksum_words,
    guard_rank,
    measure_guard_overhead,
    packed_checksum,
)
from .recovery import (
    BreakerPolicy,
    FaultEvent,
    RecoveryPolicy,
    ShadowVerifier,
)

__all__ = [
    "FaultPlanError",
    "GuardError",
    "OVERLOAD_REASONS",
    "OverloadError",
    "ReliabilityWarning",
    "ReproError",
    "FAULT_SITES",
    "CampaignReport",
    "FaultCampaign",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "TrialResult",
    "demo_graph",
    "demo_input",
    "GUARD_LEVELS",
    "PackGuard",
    "TensorVault",
    "accumulator_bound",
    "check_finite",
    "checksum_words",
    "guard_rank",
    "measure_guard_overhead",
    "packed_checksum",
    "BreakerPolicy",
    "FaultEvent",
    "RecoveryPolicy",
    "ShadowVerifier",
]
