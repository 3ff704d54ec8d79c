"""Whole-plan cycle prediction over compiled :class:`GraphPlan` objects.

:func:`predict_graph_cycles` walks a compiled plan's bound GEMM
executors (the same objects ``plan.run()`` dispatches to) and predicts
each quantized layer's cycles with the engine-timed cost report
(:func:`~repro.analysis.cost.model.predict_gemm`) -- no inference run.
The static IR does not know the spatial extent of a layer's activations
(M is batch- and geometry-dependent), so callers either accept the
documented ``assumed_m`` default -- blocking *ranking* is M-invariant
in the leading term, which is all the checker needs -- or pass
per-layer row counts (``repro run`` derives them from the measured
per-layer MAC counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core.isa import KernelCosts

from .model import CostBreakdown, predict_gemm

#: Row count assumed when the caller cannot know M statically.  The
#: per-layer totals scale with the true M, but the blocking *ranking*
#: the checker consumes is unchanged.
DEFAULT_ASSUMED_M = 64


@dataclass(frozen=True)
class LayerCost:
    """Predicted cost of one quantized layer (all its group GEMMs).

    ``breakdown`` describes a single group's GEMM; grouped convolutions
    run ``gemms`` identical GEMMs per call, so the layer totals are the
    breakdown scaled by ``gemms``.
    """

    label: str
    op: str
    config: str
    mode: str               # "fast" | "event"
    gemms: int
    m: int
    n: int
    k: int
    breakdown: CostBreakdown

    @property
    def cycles(self) -> int:
        return self.gemms * self.breakdown.cycles

    @property
    def macs_issued(self) -> int:
        return self.gemms * self.breakdown.macs_issued

    def as_dict(self) -> dict:
        return {
            "label": self.label, "op": self.op, "config": self.config,
            "mode": self.mode, "gemms": self.gemms,
            "m": self.m, "n": self.n, "k": self.k,
            "cycles": self.cycles,
            "macs_issued": self.macs_issued,
            "per_gemm": self.breakdown.as_dict(),
        }


@dataclass(frozen=True)
class PlanCost:
    """Per-layer predictions plus the plan-level roll-up."""

    layers: tuple[LayerCost, ...]
    assumed_m: int

    @property
    def total_cycles(self) -> int:
        return sum(layer.cycles for layer in self.layers)

    @property
    def total_macs_issued(self) -> int:
        return sum(layer.macs_issued for layer in self.layers)

    def by_label(self) -> dict[str, LayerCost]:
        return {layer.label: layer for layer in self.layers}

    def as_dict(self) -> dict:
        return {
            "assumed_m": self.assumed_m,
            "total_cycles": self.total_cycles,
            "total_macs_issued": self.total_macs_issued,
            "layers": [layer.as_dict() for layer in self.layers],
        }


def iter_plan_gemms(plan) -> Iterator[tuple[str, str, list]]:
    """``(stats_label, op, bound_gemms)`` per quantized step of a plan.

    Numpy-backend plans have no Mix-GEMM configuration to cost, so they
    yield nothing.
    """
    for step in plan.steps:
        gemms = list(getattr(step, "gemms", []))
        single = getattr(step, "gemm", None)
        if single is not None:
            gemms.append(single)
        if not gemms or gemms[0].config is None:
            continue
        label = getattr(step, "stats_label", step.label)
        yield label, getattr(step, "op", ""), gemms


def predict_graph_cycles(plan, *,
                         assumed_m: int = DEFAULT_ASSUMED_M,
                         layer_rows: Optional[dict[str, int]] = None,
                         costs: Optional[KernelCosts] = None,
                         ) -> PlanCost:
    """Predict every quantized layer's cycles for a compiled plan.

    ``layer_rows`` maps a step's ``stats_label`` to its true GEMM row
    count (M); layers not listed fall back to ``assumed_m``.  The group
    GEMMs of one layer share (config, N, K), so each layer costs one
    memoized :func:`~repro.analysis.cost.model.predict_gemm` call
    regardless of its group count.
    """
    if costs is None:
        costs = KernelCosts()
    rows = layer_rows or {}
    layers = []
    for label, op, gemms in iter_plan_gemms(plan):
        gemm = gemms[0]
        m = int(rows.get(label, assumed_m))
        breakdown = predict_gemm(gemm.config, costs, m, gemm.n, gemm.k)
        layers.append(LayerCost(
            label=label, op=op, config=gemm.config.name,
            mode=gemm.mode, gemms=len(gemms),
            m=m, n=gemm.n, k=gemm.k, breakdown=breakdown,
        ))
    return PlanCost(layers=tuple(layers), assumed_m=assumed_m)


__all__ = [
    "DEFAULT_ASSUMED_M",
    "LayerCost",
    "PlanCost",
    "iter_plan_gemms",
    "predict_graph_cycles",
]
