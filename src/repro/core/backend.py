"""Execution-backend dispatch for the Mix-GEMM library.

Two interchangeable backends compute Algorithm 1:

* ``event`` -- the reference path: every u-vector pair goes through the
  event-timed :class:`~repro.core.microengine.MicroEngine`, one ``bs.ip``
  at a time.  Bit-exact, cycle-exact, and able to host fault hooks and
  pack guards -- but pure Python and slow.
* ``fast`` -- the vectorized path (:mod:`repro.core.fastpath`): whole
  u-panels as numpy array operations plus an analytic cycle model that
  replays the engine's own micro-kernel timing, so cycles, PMU counters
  and instruction counts match the event backend exactly on guard-free
  runs.

``resolve_backend`` is the single decision point: ``MixGemm.gemm`` and
the compiled plan's bound GEMMs both run whatever it returns, and
nothing revises the choice afterwards.  Fidelity demands always win: a
fault hook or pack guard needs to observe individual
packs/accumulations, which only the event backend models, so their
presence forces ``event`` even when ``fast`` was requested explicitly.

Unless ``event`` was asked for, one more configuration routes to it:
an AccMem wider than the 64-bit container whose Eq. 5 bound over one
kc-block (:func:`~repro.core.binseg.worst_case_inner_product` of
:attr:`~repro.core.config.MixGemmConfig.kc_elements`) reaches
``2**63``.  The fast path accumulates blocks in int64, which would wrap
where that AccMem carries; the bignum-backed event engine does not.

Under ``auto`` (the default), datapath emulation additionally routes to
``event``: callers asking for ``emulate_datapath=True`` want the binary
segmentation pipeline exercised, not just its (identical) results.  An
explicit ``fast`` request overrides that soft preference only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .binseg import worst_case_inner_product
from .config import ACCMEM_CONTAINER_BITS, EXECUTION_BACKENDS, MixGemmConfig
from .errors import ReproError

#: Canonical backend names (also see ``EXECUTION_BACKENDS`` in config).
EVENT = "event"
FAST = "fast"
AUTO = "auto"

#: First magnitude the fast path's int64 block accumulator cannot hold.
_INT64_HALF = 1 << 63


class BackendError(ReproError, ValueError):
    """Raised for unknown backend names."""


@dataclass(frozen=True)
class BackendDecision:
    """Outcome of dispatch: the backend to run and why it was chosen."""

    backend: str
    reason: str

    @property
    def is_fast(self) -> bool:
        return self.backend == FAST


def resolve_backend(
    requested: str,
    config: MixGemmConfig,
    *,
    emulate_datapath: bool = False,
    fault_hook: Any = None,
    pack_guard: Any = None,
) -> BackendDecision:
    """Pick the execution backend for one GEMM call.

    ``requested`` is ``event``, ``fast`` or ``auto`` (the
    ``MixGemm(backend=...)`` argument).  Hooks that need event fidelity
    force the event backend regardless of the request; see the module
    docstring for the full rule set.
    """
    if requested not in EXECUTION_BACKENDS:
        raise BackendError(
            f"unknown backend {requested!r}; expected one of "
            f"{EXECUTION_BACKENDS}"
        )
    if fault_hook is not None:
        return BackendDecision(
            EVENT, "fault hook observes individual packs/accumulations"
        )
    if pack_guard is not None:
        return BackendDecision(
            EVENT, "pack guard checksums the packed operands"
        )
    if requested == EVENT:
        return BackendDecision(EVENT, "event backend explicitly requested")
    bits = config.accmem_bits
    if bits > ACCMEM_CONTAINER_BITS:
        block_bound = worst_case_inner_product(
            config.kc_elements, config.bw_a, config.bw_b,
            signed_a=config.signed_a, signed_b=config.signed_b)
        if block_bound >= _INT64_HALF:
            return BackendDecision(
                EVENT,
                f"accmem_bits={bits} with block bound {block_bound} "
                f">= 2**63 exceeds int64 accumulation",
            )
    if requested == FAST:
        return BackendDecision(FAST, "fast backend explicitly requested")
    if emulate_datapath:
        return BackendDecision(
            EVENT, "datapath emulation exercises the binseg pipeline"
        )
    return BackendDecision(FAST, "guard-free run; fast path is exact")
