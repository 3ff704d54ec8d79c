"""Static cost analysis: closed-form calibrated cycle prediction.

The fourth static-analysis subsystem (alongside contracts, concurrency
and ranges): predicts cycles, instruction counts and stall breakdowns
for any (:class:`~repro.core.config.MixGemmConfig`, problem shape,
bitwidth pair) in closed form, **without executing the event engine**
on the prediction path.

Three cooperating modules:

* :mod:`.model` -- the analytic terms.  Every per-phase quantity
  (operand staging, bs.ip issue, MAC execution per the Eq. 5 group
  structure, collection, C-update epilogue) derives from the ISA cost
  table in :mod:`repro.core.isa` and the DSU group schedule; the
  steady-state cycles-per-k-group slope is ``max(issue, execute)``
  exactly.
* :mod:`.calibrate` -- the small set of calibrated overhead
  coefficients (pipeline fill/drain intercept, stall-counter split)
  fitted once per cost-table content digest and tile signature per
  process against instrumented event-engine probes
  (:func:`repro.core.fastpath.tile_timing`) and kept in an in-process
  memo.
* :mod:`.checker` -- ``repro check --cost``: COST-MODEL-DRIFT,
  COST-BLOCKING-INEFFICIENT and COST-IMBALANCE diagnostics over a
  deployment graph, rendered through the shared text/JSON/SARIF
  machinery.

:func:`predict_gemm` / :func:`predict_graph_cycles` are the O(1) APIs
the DSE sweeps and the ``repro run --compiled`` per-layer stats
consume.  The fast path itself never imports this package: it times
tiles on the engine only, and this model is checked against that.
"""

from __future__ import annotations

from .calibrate import (
    TileCalibration,
    calibrate_tile,
    cost_table_digest,
    get_tile_calibration,
    tile_signature,
)
from .checker import COST_RULES, check_cost, check_cost_file
from .graph import LayerCost, PlanCost, predict_graph_cycles
from .model import (
    CostBreakdown,
    predict_gemm,
    tile_engine_cycles,
    tile_issue_cycles,
    tile_slope,
)

__all__ = [
    "COST_RULES",
    "CostBreakdown",
    "LayerCost",
    "PlanCost",
    "TileCalibration",
    "calibrate_tile",
    "check_cost",
    "check_cost_file",
    "cost_table_digest",
    "get_tile_calibration",
    "predict_gemm",
    "predict_graph_cycles",
    "tile_engine_cycles",
    "tile_issue_cycles",
    "tile_signature",
    "tile_slope",
]
