"""Static cost analysis: engine-timed cycles split by phase.

The fourth static-analysis subsystem (alongside contracts, concurrency
and ranges): reports cycles, instruction counts and stall breakdowns
for any (:class:`~repro.core.config.MixGemmConfig`, problem shape,
bitwidth pair) without running the GEMM itself.

* :mod:`.model` -- :func:`predict_gemm` reads the fast path's
  whole-GEMM timing (:func:`repro.core.fastpath.fastpath_timing`, one
  event-engine run per tile signature and group count) and splits it
  into the phases of Algorithm 1 (operand staging, bs.ip issue,
  collection, C-update epilogue, stalls) with closed forms over the ISA
  cost table in :mod:`repro.core.isa`.  Exact by construction: the
  engine is the only timing source.
* :mod:`.graph` -- :func:`predict_graph_cycles` over a compiled plan.
* :mod:`.checker` -- ``repro check --cost``: COST-BLOCKING-INEFFICIENT
  and COST-IMBALANCE diagnostics over a deployment graph, rendered
  through the shared text/JSON/SARIF machinery.

:func:`predict_gemm` / :func:`predict_graph_cycles` are the APIs the
``repro run`` per-layer stats consume.  The fast path itself never
imports this package.
"""

from __future__ import annotations

from .checker import COST_RULES, check_cost, check_cost_file
from .graph import LayerCost, PlanCost, predict_graph_cycles
from .model import CostBreakdown, predict_gemm

__all__ = [
    "COST_RULES",
    "CostBreakdown",
    "LayerCost",
    "PlanCost",
    "check_cost",
    "check_cost_file",
    "predict_gemm",
    "predict_graph_cycles",
]
