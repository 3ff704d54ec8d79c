"""Static analysis for the Mix-GEMM reproduction.

Cooperating layers, surfaced together through ``repro check``:

* **Contract checker** (:mod:`repro.analysis.contracts`) -- proves,
  over a deployment :class:`~repro.runtime.graph.GraphModel` plus a
  :class:`~repro.core.config.MixGemmConfig`, that the dynamic engine
  cannot overflow its AccMem accumulators (Eq. 5 worst-case bound over
  the im2col-lowered K), deadlock in the Source Buffers, or trip over
  malformed quantization metadata -- without executing a single GEMM.
* **Repo-invariant linter** (:mod:`repro.analysis.astlint`) -- an
  ``ast``-level linter enforcing the REP001-REP010 house rules (error
  hierarchy, seeded RNG, integer-exact kernels, honest error handling,
  unit-annotated cost models, single-definition accumulator widths).
* **Range analyzer** (:mod:`repro.analysis.ranges`) -- an abstract
  interpreter propagating interval/affine domains through the graph
  with exact runtime semantics (im2col lowering, per-kc-block
  two's-complement wrap, fused activations), proving per-layer
  accumulator requirements tighter than the Eq. 5 worst case,
  verifying compiled plans preserve those ranges, and cross-checking
  them against observed runtime extrema.
* **Cost analyzer** (:mod:`repro.analysis.cost`) -- a closed-form,
  calibration-verified cycle model predicting per-layer cycles,
  instruction counts and stall breakdowns without executing the event
  engine; powers ``repro check --cost`` (COST-* diagnostics) and
  ``predict_graph_cycles()`` over compiled plans.

Findings are :class:`~repro.analysis.diagnostics.Diagnostic` records
collected into a :class:`~repro.analysis.diagnostics.DiagnosticReport`,
renderable as text, JSON, or SARIF 2.1.0
(:mod:`repro.analysis.sarif`) for CI code-scanning upload.
"""

from __future__ import annotations

from repro.analysis.astlint import (
    LINT_RULES,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.concurrency import (
    CONC_RULES,
    ConcurrencyAnalysis,
    analyze_concurrency,
    check_concurrency,
)
from repro.analysis.contracts import (
    CONTRACT_RULES,
    check_config,
    check_graph,
    check_graph_file,
    check_graph_structure,
    check_overflow,
)
from repro.analysis.cost import (
    COST_RULES,
    check_cost,
    check_cost_file,
    predict_gemm,
    predict_graph_cycles,
)
from repro.analysis.diagnostics import (
    AnalysisError,
    Diagnostic,
    DiagnosticReport,
    ERROR,
    INFO,
    SEVERITIES,
    WARNING,
    severity_rank,
)
from repro.analysis.ranges import (
    RANGES_RULES,
    RangeAnalysis,
    analyze_graph,
    check_ranges,
    check_ranges_file,
    crosscheck_ranges,
    observing_ranges,
    verify_graph_plans,
    verify_plan,
)
from repro.analysis.sarif import to_sarif, to_sarif_json

#: Every rule id ``repro check`` can emit.  Later registries must not
#: clobber earlier ones -- shared ids (``GRF-PARSE``) keep their first
#: registration, matching the SARIF driver's dedup.
ALL_RULES: dict[str, str] = {}
for _registry in (CONTRACT_RULES, LINT_RULES, CONC_RULES, RANGES_RULES,
                  COST_RULES):
    for _rid, _description in _registry.items():
        ALL_RULES.setdefault(_rid, _description)
del _registry, _rid, _description

__all__ = [
    "ALL_RULES",
    "AnalysisError",
    "CONC_RULES",
    "CONTRACT_RULES",
    "COST_RULES",
    "ConcurrencyAnalysis",
    "Diagnostic",
    "DiagnosticReport",
    "ERROR",
    "INFO",
    "LINT_RULES",
    "RANGES_RULES",
    "RangeAnalysis",
    "SEVERITIES",
    "WARNING",
    "analyze_concurrency",
    "analyze_graph",
    "check_concurrency",
    "check_config",
    "check_cost",
    "check_cost_file",
    "check_graph",
    "check_graph_file",
    "check_graph_structure",
    "check_overflow",
    "check_ranges",
    "check_ranges_file",
    "crosscheck_ranges",
    "lint_file",
    "lint_paths",
    "lint_source",
    "observing_ranges",
    "predict_gemm",
    "predict_graph_cycles",
    "severity_rank",
    "verify_graph_plans",
    "verify_plan",
    "to_sarif",
    "to_sarif_json",
]
