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
* **K order** -- a conv step that declares the channels-last
  ``(kh, kw, c)`` K order is checked against the source quantization
  with its rows permuted the same way (the permutation is derived from
  the step's ``(cpg, kh, kw)``, not read from the plan), and such
  a panel must not sit in a GEMM whose AccMem wraps over more than one
  kc-block: permuting K there moves products across the wrap points;
* **wrap behavior** -- the bound GEMM's ``accmem_bits`` and kc-block
  split boundaries match the analysis (same wrap granularity implies
  the same two's-complement semantics);
* **dequantization affine** -- the step's baked ``out_scale``/bias
  equal the analyzer's exact :class:`AffineChannelMap`;
* **wide constants** -- every lowering a conv step has cached holds
  ``np.tile`` of the step's narrow ``out_scale``, bias and folded-BN
  arrays (the copies its per-call epilogue actually reads), and its
  remaining epilogue entries are the step's own;
* **kernel-row taps** -- a conv step that lowers through a kernel-row
  panel (summing one GEMM per kernel row) must meet the rule that
  makes the sum exact -- stride 1, one group, the channels-last K
  order, and a fast kernel of one kc-block that no AccMem wraps.  The
  per-tap B operands are row ranges of that block, sliced on each
  call, so the panel check above covers their values;
* **direct lowerings** -- a conv step that uses its buffer as the A
  matrix itself (no window copy) must have a 1x1 kernel, padding 0 and
  one group, the only convs whose im2row rows are the strided input
  pixels;
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
from repro.core.config import ACCMEM_CONTAINER_BITS, BlockingParams
from repro.nn.im2col import (
    K_ORDER_CHANNELS_LAST,
    K_ORDER_IM2ROW,
    channels_last_order,
)

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


def _k_permutation(step) -> Optional[np.ndarray]:
    """Row permutation from the source panel's ``(c, kh, kw)`` K order to
    the step's declared one, derived from the step's ``(cpg, kh, kw)``;
    ``None`` when the step keeps the source order.  Raises
    ``ValueError`` on an order this module does not know.
    """
    order = getattr(step, "k_order", K_ORDER_IM2ROW)
    if order == K_ORDER_IM2ROW:
        return None
    if order != K_ORDER_CHANNELS_LAST:
        raise ValueError(f"unknown K order {order!r}")
    return channels_last_order(step.cpg, step.kh, step.kw)


def _check_bound_gemm(gemm, panel_ref: np.ndarray, rec, step_label: str,
                      group: int, path: str, permuted: bool = False
                      ) -> list[Diagnostic]:
    """One bound executor vs the analyzer's independent derivation.

    ``permuted``: ``panel_ref`` already carries the step's channels-last
    K order, which is exact only where the GEMM's result cannot depend
    on the K order.
    """
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
    if (permuted and len(rec.blocks[group]) > 1
            and rec.accmem_bits < ACCMEM_CONTAINER_BITS):
        diags.append(_diag(
            step_label, path,
            f"{where}: K rows permuted to the channels-last order in a "
            f"GEMM of {len(rec.blocks[group])} kc-blocks whose "
            f"{rec.accmem_bits}-bit AccMem wraps; wrap points would "
            f"move",
            hint="keep the im2row (c, kh, kw) K order for wrapping "
                 "multi-block GEMMs"))
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


def _check_wide_constants(step, path: str) -> list[Diagnostic]:
    """Each cached conv lowering's tiled constants vs ``np.tile`` of the
    step's narrow per-channel arrays, for every element of its output."""
    diags: list[Diagnostic] = []
    for shape, low in getattr(step, "_lowerings", {}).items():
        where = f"lowering for input {shape}"
        if len(low.epilogue) != len(step.epilogue):
            diags.append(_diag(
                step.label, path,
                f"{where}: {len(low.epilogue)} epilogue entries, the "
                f"step has {len(step.epilogue)}"))
            continue
        pairs = [("dequantization scale", low.out_scale,
                  getattr(step, "_out_scale", None)),
                 ("bias", low.bias, getattr(step, "_bias", None))]
        for i, (wide, narrow) in enumerate(zip(low.epilogue,
                                               step.epilogue)):
            if hasattr(narrow, "shift"):  # a folded batchnorm
                pairs.append((f"epilogue {i} BN scale",
                              getattr(wide, "scale", None), narrow.scale))
                pairs.append((f"epilogue {i} BN shift",
                              getattr(wide, "shift", None), narrow.shift))
            elif wide is not narrow:
                diags.append(_diag(
                    step.label, path,
                    f"{where}: epilogue entry {i} is not the step's own"))
        reps = low.out_h * low.out_w
        for what, wide, narrow in pairs:
            if narrow is None:
                ok = wide is None
            else:
                ok = wide is not None and np.array_equal(
                    wide, np.tile(np.ravel(narrow), reps))
            if not ok:
                diags.append(_diag(
                    step.label, path,
                    f"{where}: tiled {what} diverges from the step's "
                    f"per-channel constant",
                    hint="the per-call epilogue reads the tiled copy"))
    return diags


def _check_kernel_rows(step, path: str) -> list[Diagnostic]:
    """A conv step that lowers through a kernel-row panel (the step, or
    any lowering it cached) meets the rule that makes its per-tap GEMM
    sum exact."""
    lows = getattr(step, "_lowerings", {})
    if not (getattr(step, "kernel_rows", False)
            or any(low.kernel_rows for low in lows.values())):
        return []
    gemms = step.gemms
    kernel = getattr(gemms[0], "kernel", None)
    broken = []
    if step.stride != 1:
        broken.append(f"stride {step.stride}")
    if len(gemms) != 1:
        broken.append(f"{len(gemms)} groups")
    if step.k_order != K_ORDER_CHANNELS_LAST:
        broken.append(f"K order {step.k_order}")
    if kernel is None or gemms[0].mode != "fast":
        broken.append("no fast kernel")
    elif len(kernel.blocks) != 1:
        broken.append(f"{len(kernel.blocks)} kc-blocks")
    elif kernel.wrap_bits is not None:
        broken.append(f"a {kernel.wrap_bits}-bit AccMem wrap")
    if not broken:
        return []
    return [_diag(
        step.label, path,
        f"kernel-row lowering sums per-tap GEMMs under "
        f"{', '.join(broken)}; the partial sums are not those of one "
        f"exact kc-block",
        hint="only stride-1 single-group convs on one unwrapped fast "
             "kc-block may lower through a kernel-row panel")]


def _check_direct(step, path: str) -> list[Diagnostic]:
    """A conv step whose A matrix is its input buffer meets the rule
    that makes that buffer the im2row matrix."""
    lows = getattr(step, "_lowerings", {})
    if not (getattr(step, "direct", False)
            or any(low.direct for low in lows.values())):
        return []
    broken = []
    if (step.kh, step.kw) != (1, 1):
        broken.append(f"a {step.kh}x{step.kw} kernel")
    if step.kpad != 0:
        broken.append(f"padding {step.kpad}")
    if step.groups != 1:
        broken.append(f"{step.groups} groups")
    if not broken:
        return []
    return [_diag(
        step.label, path,
        f"direct lowering under {', '.join(broken)}; its buffer is not "
        f"the im2row matrix",
        hint="only 1x1, unpadded, single-group convs may use their "
             "input buffer as the A matrix")]


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
            gemms = step.gemms
            spatial = step.op != "quant_linear"
            if len(gemms) != rec.group_count:
                diags.append(_diag(
                    step.label, path,
                    f"plan binds {len(gemms)} GEMM executors but the "
                    f"analysis derived {rec.group_count} groups"))
            else:
                try:
                    perm = _k_permutation(step)
                except ValueError as exc:
                    diags.append(_diag(step.label, path, str(exc)))
                    gemms = []
                for g, gemm in enumerate(gemms):
                    panel_ref = rec.weights_q[g]
                    if perm is not None:
                        panel_ref = panel_ref[perm]
                    diags.extend(_check_bound_gemm(
                        gemm, panel_ref, rec, step.label, g, path,
                        permuted=perm is not None))
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

        diags.extend(_check_wide_constants(step, path))
        diags.extend(_check_kernel_rows(step, path))
        diags.extend(_check_direct(step, path))
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

    Covers the fused mixgemm compilation (the plan ``repro run`` and
    ``repro serve`` deploy, guarded or not) and the unfused reference
    it is compared against; compile failures surface as ``RANGE-EQUIV``
    findings rather than exceptions so a CI lane can report them.
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
