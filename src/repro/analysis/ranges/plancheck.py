"""Plan-equivalence verification: compiled plans preserve proven ranges.

:func:`compile_graph` promises bit-exactness by construction -- BN
folding hoists only constant computation, fused activations keep the
per-element float sequence, prepacked panels hold the same integers the
engine would quantize per call.  This module turns that promise into a
*checked* property: :func:`verify_plan` re-derives, from the compiled
plan's actual baked state, the same interval semantics the abstract
interpreter proved over the source graph, and emits ``RANGE-EQUIV``
diagnostics on any divergence.

Per step it checks:

* **baked integer panels** -- exact (``==``) equality between every
  bound GEMM's weight operand (reassembled, uncast, from the fast
  kernel's kc-blocks, or the event executor's B matrix) and the
  analyzer's independently quantized panel;
* **wrap behavior** -- the bound GEMM's ``accmem_bits`` and kc-block
  split boundaries match the analysis (same wrap granularity implies
  the same two's-complement semantics);
* **dequantization affine** -- the step's baked ``out_scale``/bias
  equal the analyzer's exact :class:`AffineChannelMap`;
* **epilogue ranges** -- the step's *actual* fused epilogue closures
  (BN folds, activation fusions) are evaluated on the pre-epilogue
  interval endpoints and must land exactly on the source graph's
  proven post-node interval.  A corrupted BN fold, a dropped or
  reordered epilogue entry, or a mislabeled fusion all diverge here.

``verify_plan`` returning no diagnostics is therefore a proof that the
compilation pipeline preserved value ranges and wrap behavior for this
plan, relative to the source-graph analysis.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.diagnostics import Diagnostic, ERROR
from repro.core.config import BlockingParams

from .analyzer import RangeAnalysis, analyze_graph
from .domain import TensorRange

_SPATIAL_SHAPE = (1, -1, 1, 1)


def _diag(step_label: str, path: str, message: str,
          hint: str = "") -> Diagnostic:
    return Diagnostic(rule="RANGE-EQUIV", severity=ERROR,
                      message=message, hint=hint, node=step_label,
                      path=path)


def _bound_gemm_panel(gemm) -> np.ndarray:
    """The (K, N) weight operand a bound GEMM will actually use.

    Kept in its baked dtype, never cast to int64: a truncating cast
    would hide a fractional tamper of a float panel (75.5 -> 75), so
    the comparison against the integer source quantization stays exact.
    """
    if gemm.mode == "fast":
        return np.concatenate([blk for _, blk, _ in gemm.kernel.blocks],
                              axis=0)
    return np.asarray(gemm._b)


def _check_bound_gemm(gemm, panel_ref: np.ndarray, rec, step_label: str,
                      group: int, path: str) -> list[Diagnostic]:
    """One bound executor vs the analyzer's independent derivation."""
    diags: list[Diagnostic] = []
    where = f"group {group}" if rec.group_count > 1 else "its GEMM"
    if gemm.config.accmem_bits != rec.accmem_bits:
        diags.append(_diag(
            step_label, path,
            f"{where}: bound executor wraps at "
            f"{gemm.config.accmem_bits} bits but the analysis assumed "
            f"{rec.accmem_bits}",
            hint="compile and analyze with the same accmem_bits"))
        return diags
    panel = _bound_gemm_panel(gemm)
    if panel.shape != panel_ref.shape:
        diags.append(_diag(
            step_label, path,
            f"{where}: baked panel shape {panel.shape} differs from "
            f"the quantized source weights {panel_ref.shape}"))
        return diags
    if not np.array_equal(panel, panel_ref):
        bad = int((panel != panel_ref).sum())
        diags.append(_diag(
            step_label, path,
            f"{where}: baked weight panel diverges from the source "
            f"quantization in {bad} entries",
            hint="the plan is serving different integers than the "
                 "engine would quantize"))
    if gemm.mode == "fast":
        kernel = gemm.kernel
        if kernel.kc_eff != rec.kc_logical:
            diags.append(_diag(
                step_label, path,
                f"{where}: fast-path kc split {kernel.kc_eff} differs "
                f"from the analyzed wrap granularity "
                f"{rec.kc_logical}; wrap points would move"))
        else:
            starts = [sl.start for sl, _, _ in kernel.blocks]
            ref = [b.k_start for b in rec.blocks[group]]
            if starts != ref:
                diags.append(_diag(
                    step_label, path,
                    f"{where}: kc-block boundaries {starts} differ "
                    f"from the analyzed blocks {ref}"))
    return diags


def _affine_equal(scale_a, scale_b, shift_a, shift_b) -> bool:
    sa = np.asarray(scale_a, dtype=np.float64).ravel()
    sb = np.asarray(scale_b, dtype=np.float64).ravel()
    ha = np.asarray(shift_a, dtype=np.float64).ravel()
    hb = np.asarray(shift_b, dtype=np.float64).ravel()
    try:
        sa, sb = np.broadcast_arrays(sa, sb)
        ha, hb = np.broadcast_arrays(ha, hb)
    except ValueError:
        return False
    return bool(np.array_equal(sa, sb) and np.array_equal(ha, hb))


def _epilogue_image(step, base: TensorRange, spatial: bool
                    ) -> Optional[TensorRange]:
    """Interval image of the step's actual fused epilogue closures.

    Endpoints are shaped like a 1-pixel batch so the closures' NCHW
    (or 2-D) broadcasting applies verbatim; each closure is per-element
    affine or monotone, so stage-wise endpoint min/max is the exact
    image.  Returns ``None`` on a closure failure.
    """
    shape = _SPATIAL_SHAPE if spatial else (1, -1)
    lo = np.atleast_1d(base.lo.astype(np.float64)).reshape(shape)
    hi = np.atleast_1d(base.hi.astype(np.float64)).reshape(shape)
    for fn in step.epilogue:
        try:
            a, b = fn(lo), fn(hi)
        except Exception:
            return None
        lo, hi = np.minimum(a, b), np.maximum(a, b)
    return TensorRange(lo.ravel() if lo.size > 1 else lo.reshape(()),
                       hi.ravel() if hi.size > 1 else hi.reshape(()))


def _ranges_equal(a: TensorRange, b: TensorRange) -> bool:
    try:
        lo_a, lo_b = np.broadcast_arrays(a.lo, b.lo)
        hi_a, hi_b = np.broadcast_arrays(a.hi, b.hi)
    except ValueError:
        return False
    return bool(np.array_equal(lo_a, lo_b) and np.array_equal(hi_a, hi_b))


def verify_plan(plan, *,
                analysis: Optional[RangeAnalysis] = None,
                blocking: Optional[BlockingParams] = None,
                input_range: Optional[tuple[float, float]] = None,
                path: str = "") -> list[Diagnostic]:
    """Prove a compiled plan preserves the source graph's ranges.

    Returns the (possibly empty) list of ``RANGE-EQUIV`` diagnostics;
    empty means every baked panel, wrap parameter, dequantization
    affine and fused epilogue reproduces the analyzer's intervals
    exactly.
    """
    if analysis is None:
        analysis = analyze_graph(
            plan.graph, accmem_bits=plan.info.accmem_bits,
            blocking=blocking, input_range=input_range)
    diags: list[Diagnostic] = []
    if plan.info.accmem_bits != analysis.accmem_bits:
        diags.append(_diag(
            "<plan>", path,
            f"plan compiled at accmem_bits={plan.info.accmem_bits} but "
            f"analysis ran at {analysis.accmem_bits}"))
        return diags
    for step in plan.steps:
        base = analysis.node_ranges.get(step.source_label)
        want = analysis.node_ranges.get(step.label)
        if base is None or want is None:
            diags.append(_diag(
                step.label, path,
                f"step {step.label!r} (base {step.source_label!r}) has "
                f"no counterpart in the source-graph analysis",
                hint="plan and analysis disagree about node labels"))
            continue

        spatial = True
        rec = analysis.records.get(getattr(step, "stats_label", ""))
        quant_gemm = getattr(step, "quant", step.op == "quant_linear") \
            and getattr(step, "backend", "") == "mixgemm"
        if quant_gemm and rec is not None:
            gemms = getattr(step, "gemms", None)
            if gemms is None:
                single = getattr(step, "gemm", None)
                gemms = [single] if single is not None else []
                spatial = False
            if len(gemms) != rec.group_count:
                diags.append(_diag(
                    step.label, path,
                    f"plan binds {len(gemms)} GEMM executors but the "
                    f"analysis derived {rec.group_count} groups"))
            else:
                for g, gemm in enumerate(gemms):
                    diags.extend(_check_bound_gemm(
                        gemm, rec.weights_q[g], rec, step.label, g,
                        path))
            scale = getattr(step, "_out_scale", None)
            bias = getattr(step, "_bias", None)
            shift = bias if bias is not None else 0.0
            if scale is not None and not _affine_equal(
                    scale, rec.out_affine.scale, shift,
                    rec.out_affine.shift):
                diags.append(_diag(
                    step.label, path,
                    "baked dequantization scale/bias diverge from the "
                    "source graph's affine map"))
        elif step.op in ("quant_linear", "linear", "flatten",
                         "global_avg_pool2d"):
            spatial = False

        image = _epilogue_image(step, base, spatial)
        if image is None:
            diags.append(_diag(
                step.label, path,
                f"epilogue of step {step.label!r} failed on interval "
                f"endpoints; cannot prove range preservation"))
            continue
        if not _ranges_equal(image, want):
            obs = image.collapse()
            exp = want.collapse()
            diags.append(_diag(
                step.label, path,
                f"epilogue image [{float(obs.lo)}, {float(obs.hi)}] "
                f"does not reproduce the source graph's proven "
                f"[{float(exp.lo)}, {float(exp.hi)}] "
                f"(fused: {', '.join(step.fused) or 'none'})",
                hint="a BN fold or activation fusion changed the "
                     "layer's value semantics"))
    return diags


def verify_graph_plans(graph, *, accmem_bits: int,
                       blocking: Optional[BlockingParams] = None,
                       input_range: Optional[tuple[float, float]] = None,
                       path: str = "",
                       analysis: Optional[RangeAnalysis] = None,
                       ) -> list[Diagnostic]:
    """Compile and verify the deployment-relevant plans of ``graph``.

    Covers the fused and unfused mixgemm compilations (the shapes
    ``repro run``/``repro serve`` deploy); compile failures surface as
    ``RANGE-EQUIV`` findings rather than exceptions so a CI lane can
    report them.
    """
    from repro.runtime.graph import GraphError
    from repro.runtime.plan import compile_graph

    if analysis is None:
        analysis = analyze_graph(graph, accmem_bits=accmem_bits,
                                 blocking=blocking,
                                 input_range=input_range)
    diags: list[Diagnostic] = []
    for fuse in (True, False):
        try:
            plan = compile_graph(graph, backend="mixgemm",
                                 gemm_backend="auto",
                                 accmem_bits=accmem_bits, fuse=fuse)
        except (GraphError, ValueError) as exc:
            diags.append(_diag(
                "<compile>", path,
                f"cannot compile the {'fused' if fuse else 'unfused'} "
                f"plan: {exc}"))
            continue
        diags.extend(verify_plan(plan, analysis=analysis, path=path))
    return diags


__all__ = ["verify_graph_plans", "verify_plan"]
