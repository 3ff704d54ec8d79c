"""``repro check --cost``: cost-model diagnostics over a model graph.

Three rules, all grounded in the calibrated closed-form model:

* **COST-MODEL-DRIFT** (error) -- the calibration for a layer's config
  failed holdout verification: the engine's observed timing no longer
  matches the affine law the model derives from the ISA cost table.
  That means either the cost table or the engine changed without the
  other, and every cycle number the repository reports is suspect.
* **COST-BLOCKING-INEFFICIENT** (warning) -- the blocking a layer
  would deploy with is predicted at least
  :data:`INEFFICIENCY_THRESHOLD` slower than the best candidate in the
  standard blocking grid.  Legal, but leaves cycles on the table;
  the hint names the predicted-optimal blocking to tune toward.
* **COST-IMBALANCE** (warning) -- under a requested parallel worker
  count, the nr-aligned column partition (exactly
  :meth:`repro.core.parallel.ParallelMixGemm._partition`) gives some
  worker a predicted-cycle share far from the others (or leaves
  workers idle), so the parallel speedup cannot approach the core
  count.

Like the other graph checkers, predictions use the documented
``assumed_m`` row count: blocking ranking and slice skew are invariant
to M in the leading term, so the verdicts match any deployment batch.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from repro.analysis.contracts.overflow import node_config
from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    ERROR,
    WARNING,
)
from repro.core.binseg import DEFAULT_MUL_WIDTH
from repro.core.config import (
    BlockingParams,
    DEFAULT_ACCMEM_BITS,
    blocking_candidates,
)
from repro.core.isa import KernelCosts

from .calibrate import get_tile_calibration
from .graph import DEFAULT_ASSUMED_M
from .model import predict_gemm

#: rule id -> one-line description, for SARIF rule metadata and docs.
COST_RULES: dict[str, str] = {
    "COST-MODEL-DRIFT": "cost-model calibration no longer reproduces "
                        "the event engine",
    "COST-BLOCKING-INEFFICIENT": "deployed blocking predicted well off "
                                 "the analytic optimum",
    "COST-IMBALANCE": "parallel worker slices have skewed predicted "
                      "cycles",
}

#: Relative slowdown vs. the best grid candidate that trips
#: COST-BLOCKING-INEFFICIENT.
INEFFICIENCY_THRESHOLD = 0.20

#: Relative spread (1 - fastest/slowest slice) that trips
#: COST-IMBALANCE.
IMBALANCE_THRESHOLD = 0.20

_QUANT_OPS = ("quant_conv2d", "quant_linear")


def _runtime_blocking() -> BlockingParams:
    """The blocking the inference engine actually deploys with."""
    from repro.runtime.engine import SIM_BLOCKING

    return SIM_BLOCKING


def _partition(n: int, cores: int, nr: int) -> list[tuple[int, int]]:
    """Replicates ``ParallelMixGemm._partition`` without an executor."""
    chunk = math.ceil(n / cores)
    chunk = max(nr, math.ceil(chunk / nr) * nr)
    slices = []
    start = 0
    while start < n:
        end = min(n, start + chunk)
        slices.append((start, end))
        start = end
    return slices


def check_cost(graph, *,
               accmem_bits: int = DEFAULT_ACCMEM_BITS,
               blocking: Optional[BlockingParams] = None,
               mul_width: int = DEFAULT_MUL_WIDTH,
               workers: int = 1,
               assumed_m: int = DEFAULT_ASSUMED_M,
               costs: Optional[KernelCosts] = None,
               path: str = "") -> DiagnosticReport:
    """Run the three COST-* checks over every quantized node."""
    if blocking is None:
        blocking = _runtime_blocking()
    if costs is None:
        costs = KernelCosts()
    report = DiagnosticReport()
    drift_seen: set[str] = set()
    candidates = blocking_candidates()
    for label, node in zip(graph.effective_ids(), graph):
        if node.op not in _QUANT_OPS:
            continue
        config = node_config(node, accmem_bits=accmem_bits,
                             blocking=blocking, mul_width=mul_width)
        k = node.gemm_k()
        n_out = node.out_channels()
        if config is None or not k or not n_out:
            continue  # structurally broken; the graph contract reports it
        groups = int(node.attrs.get("groups", 1)) or 1
        n = max(1, n_out // groups)

        calibration = get_tile_calibration(config, costs)
        if not calibration.exact and config.name not in drift_seen:
            drift_seen.add(config.name)
            report.add(Diagnostic(
                rule="COST-MODEL-DRIFT", severity=ERROR,
                message=(
                    f"{node.op} ({config.name}): calibration failed "
                    f"holdout verification -- the engine's observed tile "
                    f"timing no longer matches the affine law derived "
                    f"from the ISA cost table"
                ),
                hint="the cost table (core/isa.py) and the engine "
                     "(core/microengine.py) disagree; change whichever "
                     "is wrong so the closed form reproduces the engine "
                     "again",
                node=label, path=path,
            ))

        deployed = predict_gemm(config, costs, assumed_m, n, k).cycles
        best_cycles = deployed
        best_blocking = blocking
        for cand in candidates:
            cand_cfg = dataclasses.replace(config, blocking=cand)
            cycles = predict_gemm(cand_cfg, costs, assumed_m, n, k).cycles
            if cycles < best_cycles:
                best_cycles = cycles
                best_blocking = cand
        if deployed > best_cycles * (1 + INEFFICIENCY_THRESHOLD):
            pct = 100.0 * (deployed / best_cycles - 1.0)
            b = best_blocking
            report.add(Diagnostic(
                rule="COST-BLOCKING-INEFFICIENT", severity=WARNING,
                message=(
                    f"{node.op} ({config.name}, N={n}, K={k}): deployed "
                    f"blocking mc={blocking.mc} nc={blocking.nc} "
                    f"kc={blocking.kc} is predicted {pct:.0f}% slower "
                    f"than the analytic optimum "
                    f"({deployed} vs {best_cycles} cycles at "
                    f"M={assumed_m})"
                ),
                hint=(f"tune toward mc={b.mc} nc={b.nc} kc={b.kc} "
                      f"mr={b.mr} nr={b.nr}"),
                node=label, path=path,
            ))

        if workers > 1:
            slices = _partition(n, workers, blocking.nr)
            slice_cycles = [
                predict_gemm(config, costs, assumed_m, end - start,
                             k).cycles
                for start, end in slices]
            idle = workers - len(slices)
            skew = (1.0 - min(slice_cycles) / max(slice_cycles)
                    if slice_cycles else 0.0)
            if idle > 0 or skew >= IMBALANCE_THRESHOLD:
                detail = (f"{idle} of {workers} workers receive no "
                          f"columns at all"
                          if idle > 0 else
                          f"fastest slice is predicted {100 * skew:.0f}% "
                          f"lighter than the slowest")
                report.add(Diagnostic(
                    rule="COST-IMBALANCE", severity=WARNING,
                    message=(
                        f"{node.op} ({config.name}, N={n}): the "
                        f"nr-aligned partition into {len(slices)} "
                        f"slice(s) for {workers} workers is skewed -- "
                        f"{detail}"
                    ),
                    hint="pick a worker count dividing N/nr evenly, or "
                         "widen the layer so the column partition "
                         "balances",
                    node=label, path=path,
                ))
    return report


def check_cost_file(path: str, *,
                    accmem_bits: int = DEFAULT_ACCMEM_BITS,
                    blocking: Optional[BlockingParams] = None,
                    mul_width: int = DEFAULT_MUL_WIDTH,
                    workers: int = 1,
                    assumed_m: int = DEFAULT_ASSUMED_M,
                    ) -> DiagnosticReport:
    """Load a serialized model and cost-check it.

    Deserialization failures become ``GRF-PARSE`` diagnostics instead
    of exceptions, so a CI lane can report on a corrupt artifact.
    """
    from repro.runtime.graph import GraphError, GraphModel

    try:
        graph = GraphModel.load(path)
    except (GraphError, OSError) as exc:
        report = DiagnosticReport()
        report.add(Diagnostic(
            rule="GRF-PARSE", severity="error",
            message=f"cannot load model: {exc}", path=path,
            hint="re-export the model with GraphModel.to_json()",
        ))
        return report
    return check_cost(graph, accmem_bits=accmem_bits, blocking=blocking,
                      mul_width=mul_width, workers=workers,
                      assumed_m=assumed_m, path=path)


__all__ = [
    "COST_RULES",
    "IMBALANCE_THRESHOLD",
    "INEFFICIENCY_THRESHOLD",
    "check_cost",
    "check_cost_file",
]
