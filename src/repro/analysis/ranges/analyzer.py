"""Abstract interpretation of deployment graphs over interval domains.

:func:`analyze_graph` walks a :class:`~repro.runtime.graph.GraphModel`
in execution order and propagates a :class:`TensorRange` through every
node, mirroring -- expression for expression -- what the inference
engine computes:

* model input: the caller-declared ``input_range`` (default unbounded;
  the activation quantizer's clip makes unbounded inputs sound and
  still yields the full-code-range bound);
* quantized GEMM layers: activations pass through the *same*
  ``round(x / scale + zp).clip(qmin, qmax)`` expression the engine
  evaluates, weights are quantized exactly as the engine quantizes them
  (per-channel absmax, so the panel entries are statically known
  integers), and the inner product is bounded per kc-block with the
  im2col lowering taken into account -- per-input-channel activation
  bounds are expanded along the ``(c, kh, kw)`` row layout, and
  ``padding > 0`` widens the code range to include the zero codes the
  padded halo contributes;
* two's-complement wrap: each kc-block's true-sum interval either fits
  the configured ``accmem_bits`` (register holds the true value; exact
  pass-through) or may wrap (sound widening to the full representable
  range), matching both the event engine's per-addition wrap and the
  fast path's per-block :func:`~repro.core.fastpath.wrap_signed_array`;
* epilogues: dequantization scales, bias and batch-norm are composed
  as exact per-channel :class:`AffineChannelMap`\\ s; activations use
  monotone endpoint evaluation (SiLU gets its non-monotone special
  case).

Everything downstream -- the RANGE-* diagnostics, the plan-equivalence
verifier and the runtime sanitizer crosscheck -- consumes the
:class:`RangeAnalysis` this module produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.analysis.contracts.overflow import node_config
from repro.analysis.diagnostics import AnalysisError
from repro.core.binseg import accumulator_bits_required
from repro.core.config import BlockingParams, DEFAULT_ACCMEM_BITS
from repro.core.packing import aligned_kc
from repro.nn.functional_quant import weight_absmax_scale
from repro.quant.affine import QuantParams, quantize

from .domain import (
    AffineChannelMap,
    TensorRange,
    bits_required_interval,
    signed_contributions,
    silu_range,
    wrap_interval,
)

_UNKNOWN = TensorRange.scalar(-math.inf, math.inf)


def _runtime_blocking() -> BlockingParams:
    from repro.runtime.engine import SIM_BLOCKING

    return SIM_BLOCKING


@dataclass(frozen=True)
class BlockBound:
    """True-sum interval of one kc-block, per output feature (pre-wrap)."""

    k_start: int
    k_stop: int
    lo: np.ndarray  #: (F_g,) int64 lower bounds of the true block sum
    hi: np.ndarray  #: (F_g,) int64 upper bounds of the true block sum
    wraps: bool     #: True when any feature's interval escapes AccMem


@dataclass
class GemmRangeRecord:
    """Everything the analysis proved about one quantized GEMM layer."""

    label: str
    op: str
    config_name: str
    k: int
    kc_logical: int
    group_count: int
    accmem_bits: int
    #: Quantized A-operand code interval, im2col-aware (includes the
    #: padding zero codes when the conv pads).
    act: TensorRange
    #: Per-group ``(K, F_g)`` quantized B-panels, exactly as the engine
    #: builds them -- statically known integers.
    weights_q: list[np.ndarray] = field(default_factory=list)
    #: Per-group kc-block bounds (the wrap-granular view).
    blocks: list[list[BlockBound]] = field(default_factory=list)
    #: Post-wrap accumulator interval per output channel (int64).
    acc_lo: np.ndarray = None
    acc_hi: np.ndarray = None
    derived_bits: int = 0
    worst_bits: int = 0
    may_wrap: bool = False
    #: Exact affine map from the integer accumulator to the node output.
    out_affine: AffineChannelMap = None
    out: TensorRange = None

    @property
    def acc(self) -> TensorRange:
        """Float mirror of the accumulator interval (for rendering)."""
        return TensorRange(self.acc_lo.astype(np.float64),
                           self.acc_hi.astype(np.float64))

    @property
    def headroom_bits(self) -> int:
        return self.accmem_bits - self.derived_bits


@dataclass
class RangeAnalysis:
    """Result of :func:`analyze_graph`: per-node ranges + GEMM records."""

    accmem_bits: int
    blocking: BlockingParams
    input_range: tuple[float, float]
    #: label -> proven output interval, for every node plus ``"input"``.
    node_ranges: dict[str, TensorRange] = field(default_factory=dict)
    #: label -> GEMM-layer record, quantized GEMM nodes only.
    records: dict[str, GemmRangeRecord] = field(default_factory=dict)

    def table(self) -> list[dict]:
        """Queryable per-layer bounds table (DSE input)."""
        rows = []
        for label, r in self.records.items():
            rows.append({
                "layer": label,
                "op": r.op,
                "config": r.config_name,
                "k": r.k,
                "kc_logical": r.kc_logical,
                "groups": r.group_count,
                "acc_lo": int(r.acc_lo.min()),
                "acc_hi": int(r.acc_hi.max()),
                "derived_bits": r.derived_bits,
                "worst_case_bits": r.worst_bits,
                "accmem_bits": r.accmem_bits,
                "headroom_bits": r.headroom_bits,
                "may_wrap": r.may_wrap,
                "out_lo": float(r.out.lo.min()),
                "out_hi": float(r.out.hi.max()),
            })
        return rows

    def render_table(self) -> str:
        """Aligned text table of the per-layer derived bounds."""
        header = ("layer", "op", "config", "K", "kc", "derived",
                  "worst", "accmem", "headroom", "wrap?")
        rows = [header]
        for row in self.table():
            rows.append((
                row["layer"], row["op"], row["config"], str(row["k"]),
                str(row["kc_logical"]), str(row["derived_bits"]),
                str(row["worst_case_bits"]), str(row["accmem_bits"]),
                str(row["headroom_bits"]),
                "MAY-WRAP" if row["may_wrap"] else "no",
            ))
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                 for row in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines)


# -- per-op transfer helpers ---------------------------------------------------


def _quantize_range(r: TensorRange, qp: QuantParams) -> TensorRange:
    """Image under the engine's activation quantizer (monotone, exact)."""
    scale = float(qp.scale)
    zp = float(qp.zero_point)

    def q(x: np.ndarray) -> np.ndarray:
        return np.clip(np.round(x / scale + zp), qp.qmin, qp.qmax)

    return r.map_monotone(q)


def _per_k_code_bounds(act: TensorRange, *, channels: int, start: int,
                       span: int, repeat: int, k: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Expand an activation code range along the im2col row layout.

    One GEMM row holds ``span`` channels x ``repeat`` kernel positions
    in ``(c, kh, kw)`` order; per-channel bounds repeat blockwise, a
    scalar bound broadcasts.  Returns int64 ``(K,)`` lo/hi vectors.
    """
    if act.channels == channels:
        lo = np.repeat(act.lo[start:start + span], repeat)
        hi = np.repeat(act.hi[start:start + span], repeat)
    else:
        hull = act.collapse()
        lo = np.full(k, float(hull.lo))
        hi = np.full(k, float(hull.hi))
    return lo.astype(np.int64), hi.astype(np.int64)


def _valid_act_scale(attrs: dict) -> bool:
    scale = attrs.get("act_scale")
    return (isinstance(scale, (int, float)) and math.isfinite(scale)
            and scale > 0)


class _GraphInterpreter:
    """One analysis run; dispatches per-op transfer functions."""

    def __init__(self, accmem_bits: int, blocking: BlockingParams,
                 input_range: tuple[float, float]) -> None:
        self.accmem_bits = accmem_bits
        self.blocking = blocking
        self.input_range = input_range
        self.node_ranges: dict[str, TensorRange] = {
            "input": TensorRange.scalar(*input_range),
        }
        self.records: dict[str, GemmRangeRecord] = {}
        #: label -> whether the tensor still carries spatial dims.
        self._spatial: dict[str, bool] = {"input": True}

    def run(self, graph) -> RangeAnalysis:
        from repro.runtime import ops  # shared kernels, lazy for cycles

        self._ops = ops
        prev = "input"
        for i, node in enumerate(graph):
            label = node.id or f"n{i}"
            input_ids = list(node.inputs) if node.inputs else [prev]
            ins = [self.node_ranges.get(name, _UNKNOWN)
                   for name in input_ids]
            spatial_in = [self._spatial.get(name, True)
                          for name in input_ids]
            handler = getattr(self, f"_op_{node.op}", None)
            if handler is None:
                out, spatial = _UNKNOWN, spatial_in[0]
            else:
                out, spatial = handler(node, label, ins, spatial_in)
            self.node_ranges[label] = out
            self._spatial[label] = spatial
            prev = label
        return RangeAnalysis(
            accmem_bits=self.accmem_bits, blocking=self.blocking,
            input_range=self.input_range, node_ranges=self.node_ranges,
            records=self.records,
        )

    # -- elementwise / shape ops -------------------------------------

    def _op_relu(self, node, label, ins, spatial):
        return ins[0].map_monotone(self._ops.relu), spatial[0]

    def _op_relu6(self, node, label, ins, spatial):
        return ins[0].map_monotone(self._ops.relu6), spatial[0]

    def _op_sigmoid(self, node, label, ins, spatial):
        return ins[0].map_monotone(self._ops.sigmoid), spatial[0]

    def _op_silu(self, node, label, ins, spatial):
        return silu_range(ins[0]), spatial[0]

    def _op_identity(self, node, label, ins, spatial):
        return ins[0], spatial[0]

    def _op_max_pool2d(self, node, label, ins, spatial):
        # A max/avg over values in [lo, hi] stays in [lo, hi]: exact.
        return ins[0], spatial[0]

    _op_avg_pool2d = _op_max_pool2d

    def _op_global_avg_pool2d(self, node, label, ins, spatial):
        return ins[0], False

    def _op_flatten(self, node, label, ins, spatial):
        # Flattening NCHW interleaves channels with unknown spatial
        # extent, so per-channel resolution collapses; a 2-D input
        # ((N, C), e.g. after global_avg_pool) keeps its features.
        r = ins[0]
        if spatial[0]:
            return r.collapse(), False
        return r, False

    def _op_batchnorm2d(self, node, label, ins, spatial):
        try:
            scale, shift = self._ops.batchnorm_params(
                node.tensors, node.attrs["eps"])
        except (KeyError, TypeError, ValueError):
            return _UNKNOWN, spatial[0]
        # batchnorm_params ships NCHW-broadcast (1, C, 1, 1) arrays;
        # the per-channel domain wants flat (C,) vectors (same values).
        r = ins[0]
        if r.channels is not None and r.channels != scale.size:
            r = r.collapse()
        bn = AffineChannelMap(scale.ravel(), shift.ravel())
        return bn.apply(r), spatial[0]

    def _op_add(self, node, label, ins, spatial):
        a, b = ins[0], ins[1] if len(ins) > 1 else _UNKNOWN
        if (a.channels is not None and b.channels is not None
                and a.channels != b.channels):
            a, b = a.collapse(), b.collapse()
        return a + b, spatial[0]

    def _op_channel_scale(self, node, label, ins, spatial):
        x, s = ins[0], ins[1] if len(ins) > 1 else _UNKNOWN
        if (x.channels is not None and s.channels is not None
                and x.channels != s.channels):
            x, s = x.collapse(), s.collapse()
        return x.mul(s), spatial[0]

    # -- GEMM layers --------------------------------------------------

    def _op_quant_conv2d(self, node, label, ins, spatial):
        rec = self._quant_gemm(node, label, ins[0], conv=True)
        if rec is None:
            return _UNKNOWN, True
        return rec.out, True

    def _op_quant_linear(self, node, label, ins, spatial):
        rec = self._quant_gemm(node, label, ins[0], conv=False)
        if rec is None:
            return _UNKNOWN, False
        return rec.out, False

    def _quant_gemm(self, node, label, in_range: TensorRange, *,
                    conv: bool) -> Optional[GemmRangeRecord]:
        attrs = node.attrs
        w = node.tensors.get("weight")
        config = node_config(node, accmem_bits=self.accmem_bits,
                             blocking=self.blocking)
        want_ndim = 4 if conv else 2
        if (w is None or config is None or w.ndim != want_ndim
                or not _valid_act_scale(attrs)
                or not np.isfinite(w).all()):
            return None  # structurally broken; the graph contract reports it
        act_qp = QuantParams(
            scale=attrs["act_scale"], zero_point=0.0,
            bits=attrs["act_bits"], signed=attrs["act_signed"],
        )
        w_scale = weight_absmax_scale(w, attrs["weight_bits"],
                                      channel_axis=0)
        wgt_qp = QuantParams(scale=w_scale, zero_point=0.0,
                             bits=attrs["weight_bits"], signed=True,
                             axis=0)
        w_q = quantize(w, wgt_qp)

        act = _quantize_range(in_range, act_qp)
        if conv:
            groups = int(attrs.get("groups", 1) or 1)
            out_channels, cpg, kh, kw = w.shape
            if attrs.get("padding", 0):
                # im2row pads the *quantized* tensor with zero codes.
                act = act.widen_to_include(0.0)
            k = cpg * kh * kw
            repeat, span, channels = kh * kw, cpg, groups * cpg
        else:
            groups = 1
            out_channels, k = w.shape
            repeat, span, channels = 1, k, k
        if groups <= 0 or out_channels % groups:
            return None
        fpg = out_channels // groups

        layout = config.layout
        kc_logical = aligned_kc(self.blocking.kc * layout.elems_a,
                                layout.group_elements)
        rec = GemmRangeRecord(
            label=label, op=node.op, config_name=config.name, k=k,
            kc_logical=kc_logical, group_count=groups,
            accmem_bits=self.accmem_bits, act=act,
        )
        acc_lo_parts, acc_hi_parts = [], []
        derived = 0
        for g in range(groups):
            panel = w_q[g * fpg:(g + 1) * fpg].reshape(fpg, -1).T
            rec.weights_q.append(panel)
            a_lo, a_hi = _per_k_code_bounds(
                act, channels=channels, start=g * span, span=span,
                repeat=repeat, k=k)
            c_lo, c_hi = signed_contributions(panel, a_lo, a_hi)
            group_blocks: list[BlockBound] = []
            post_lo = np.zeros(fpg, dtype=np.int64)
            post_hi = np.zeros(fpg, dtype=np.int64)
            for pc in range(0, k, kc_logical):
                stop = min(pc + kc_logical, k)
                b_lo = c_lo[pc:stop].sum(axis=0)
                b_hi = c_hi[pc:stop].sum(axis=0)
                derived = max(derived,
                              bits_required_interval(b_lo, b_hi))
                w_lo, w_hi, wraps = wrap_interval(b_lo, b_hi,
                                                  self.accmem_bits)
                group_blocks.append(BlockBound(
                    k_start=pc, k_stop=stop, lo=b_lo, hi=b_hi,
                    wraps=wraps))
                post_lo = post_lo + w_lo
                post_hi = post_hi + w_hi
            rec.blocks.append(group_blocks)
            acc_lo_parts.append(post_lo)
            acc_hi_parts.append(post_hi)
        rec.acc_lo = np.concatenate(acc_lo_parts)
        rec.acc_hi = np.concatenate(acc_hi_parts)
        rec.derived_bits = derived
        rec.worst_bits = accumulator_bits_required(
            min(k, kc_logical), config.bw_a, config.bw_b,
            signed_a=config.signed_a, signed_b=config.signed_b)
        rec.may_wrap = any(b.wraps for blocks in rec.blocks
                           for b in blocks)

        # Dequantization + bias, the exact engine expression:
        # y = acc.astype(float64) * (act_scale * w_scale) [+ bias].
        out_scale = float(act_qp.scale) * wgt_qp.scale
        bias = node.tensors.get("bias")
        shift = (np.asarray(bias, dtype=np.float64)
                 if bias is not None else np.float64(0.0))
        rec.out_affine = AffineChannelMap(out_scale, shift)
        acc_f = TensorRange(rec.acc_lo.astype(np.float64),
                            rec.acc_hi.astype(np.float64))
        rec.out = rec.out_affine.apply(acc_f)
        self.records[label] = rec
        return rec

    # -- float GEMMs (no quantization, no wrap) -----------------------

    def _op_conv2d(self, node, label, ins, spatial):
        out = self._float_gemm(node, ins[0], conv=True)
        return out, True

    def _op_linear(self, node, label, ins, spatial):
        out = self._float_gemm(node, ins[0], conv=False)
        return out, False

    def _float_gemm(self, node, in_range: TensorRange, *,
                    conv: bool) -> TensorRange:
        attrs = node.attrs
        w = node.tensors.get("weight")
        want_ndim = 4 if conv else 2
        if w is None or w.ndim != want_ndim or not np.isfinite(w).all():
            return _UNKNOWN
        act = in_range
        if conv:
            groups = int(attrs.get("groups", 1) or 1)
            out_channels, cpg, kh, kw = w.shape
            if attrs.get("padding", 0):
                act = act.widen_to_include(0.0)
            k = cpg * kh * kw
            repeat, span, channels = kh * kw, cpg, groups * cpg
        else:
            groups = 1
            out_channels, k = w.shape
            repeat, span, channels = 1, k, k
        if groups <= 0 or out_channels % groups:
            return _UNKNOWN
        fpg = out_channels // groups
        lo_parts, hi_parts = [], []
        for g in range(groups):
            panel = w[g * fpg:(g + 1) * fpg].reshape(fpg, -1).T
            if act.channels == channels:
                a_lo = np.repeat(act.lo[g * span:(g + 1) * span], repeat)
                a_hi = np.repeat(act.hi[g * span:(g + 1) * span], repeat)
            else:
                hull = act.collapse()
                a_lo = np.full(k, float(hull.lo))
                a_hi = np.full(k, float(hull.hi))
            c_lo, c_hi = signed_contributions(panel, a_lo, a_hi)
            lo_parts.append(c_lo.sum(axis=0))
            hi_parts.append(c_hi.sum(axis=0))
        lo = np.concatenate(lo_parts)
        hi = np.concatenate(hi_parts)
        bias = node.tensors.get("bias")
        if bias is not None:
            lo = lo + np.asarray(bias, dtype=np.float64)
            hi = hi + np.asarray(bias, dtype=np.float64)
        return TensorRange(lo, hi)


def analyze_graph(graph, *,
                  accmem_bits: int = DEFAULT_ACCMEM_BITS,
                  blocking: Optional[BlockingParams] = None,
                  input_range: Optional[tuple[float, float]] = None,
                  ) -> RangeAnalysis:
    """Propagate interval domains through ``graph``; see the module doc.

    ``input_range`` bounds the model input tensor; ``None`` means
    unbounded (sound for any input -- the activation quantizer's clip
    still yields finite code ranges).  ``blocking`` defaults to the
    engine's :data:`~repro.runtime.engine.SIM_BLOCKING` so the wrap
    granularity matches what actually runs.
    """
    if blocking is None:
        blocking = _runtime_blocking()
    if input_range is None:
        input_range = (-math.inf, math.inf)
    lo, hi = float(input_range[0]), float(input_range[1])
    if math.isnan(lo) or math.isnan(hi) or lo > hi:
        raise AnalysisError(
            f"invalid input range [{input_range[0]}, {input_range[1]}]")
    interp = _GraphInterpreter(accmem_bits, blocking, (lo, hi))
    return interp.run(graph)


__all__ = [
    "BlockBound",
    "GemmRangeRecord",
    "RangeAnalysis",
    "analyze_graph",
]
