"""Structural graph contract: the engine can execute this IR at all.

Statically mirrors every precondition a compiled
:class:`~repro.runtime.plan.GraphPlan` enforces (or crashes on): unique
non-reserved node ids, references only to already produced tensors,
supported operators with the right arity, channel
agreement along every edge that types can prove, and sane quantization
metadata (bitwidths in the 2-8 band, finite positive scales, weight
tensors present and finite).
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.diagnostics import Diagnostic, ERROR
from repro.core.binseg import SUPPORTED_BITWIDTHS

GRAPH_RULES: dict[str, str] = {
    "GRF-PARSE": "model file cannot be deserialized",
    "GRF-OP": "operator is not implemented by the inference engine",
    "GRF-DUP": "node id duplicated or reserved",
    "GRF-DANGLING": "node references a tensor no earlier node produces",
    "GRF-ARITY": "node wired to the wrong number of inputs",
    "GRF-SHAPE": "tensor shapes disagree across a graph edge",
    "QNT-BITS": "bitwidths missing or outside the supported 2-8 band",
    "QNT-SCALE": "activation scale missing, non-finite or non-positive",
    "QNT-TENSOR": "quantized node's shipped tensors missing or non-finite",
}

_BINARY_OPS = frozenset({"add", "channel_scale"})
_PASSTHROUGH = frozenset({
    "relu", "relu6", "silu", "sigmoid", "identity", "max_pool2d",
    "avg_pool2d", "add",
})


def load_graph_file(path: str):
    """``(graph, None)`` for a loadable model file, else ``(None, diag)``.

    The one loader behind ``repro check --graph``, ``--ranges`` and
    ``--cost``: a deserialization failure becomes a ``GRF-PARSE``
    diagnostic instead of an exception, so a CI lane can report on a
    corrupt artifact, and every pass reports it identically.
    """
    from repro.runtime.graph import GraphError, GraphModel

    try:
        return GraphModel.load(path), None
    except (GraphError, OSError) as exc:
        return None, Diagnostic(
            rule="GRF-PARSE", severity=ERROR,
            message=f"cannot load model: {exc}", path=path,
            hint="re-export the model with GraphModel.to_json()",
        )


def _err(rule: str, message: str, *, node: str, path: str,
         hint: str = "") -> Diagnostic:
    return Diagnostic(rule=rule, severity=ERROR, message=message,
                      hint=hint, node=node, path=path)


def _check_quant_node(node, label: str, path: str) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for key in ("act_bits", "weight_bits"):
        bits = node.attrs.get(key)
        if not isinstance(bits, int) or bits not in SUPPORTED_BITWIDTHS:
            diags.append(_err(
                "QNT-BITS",
                f"{node.op}: {key}={bits!r} is not a supported bitwidth "
                f"({SUPPORTED_BITWIDTHS[0]}-{SUPPORTED_BITWIDTHS[-1]})",
                node=label, path=path,
                hint="the u-engine executes 2- to 8-bit operands only",
            ))
    scale = node.attrs.get("act_scale")
    if (not isinstance(scale, (int, float)) or isinstance(scale, bool)
            or not math.isfinite(scale) or scale <= 0):
        diags.append(_err(
            "QNT-SCALE",
            f"{node.op}: act_scale={scale!r} must be a finite positive "
            f"number for the integer pipeline to requantize",
            node=label, path=path,
            hint="re-export the model so the learned scale ships with "
                 "the graph",
        ))
    weight = node.tensors.get("weight")
    if weight is None:
        diags.append(_err(
            "QNT-TENSOR",
            f"{node.op}: no 'weight' tensor shipped with the node",
            node=label, path=path,
        ))
    elif not np.all(np.isfinite(weight)):
        diags.append(_err(
            "QNT-TENSOR",
            f"{node.op}: weight tensor contains non-finite values; "
            f"absmax scale computation would poison the whole layer",
            node=label, path=path,
        ))
    return diags


def check_graph_structure(graph, *, path: str = "") -> list[Diagnostic]:
    """Run every structural/dataflow check over one graph."""
    from repro.runtime.graph import SUPPORTED_OPS

    diags: list[Diagnostic] = []
    #: id -> produced channel/feature count (None = statically unknown).
    produced: dict[str, int | None] = {"input": None}
    seen: set[str] = set()
    prev = "input"

    for i, node in enumerate(graph):
        label = node.id or f"n{i}"

        if label == "input":
            diags.append(_err(
                "GRF-DUP", f"node {i} ({node.op}) uses the reserved id "
                f"'input'", node=label, path=path))
        elif label in seen:
            diags.append(_err(
                "GRF-DUP", f"duplicate node id at node {i} ({node.op}); "
                f"its output would overwrite an earlier tensor",
                node=label, path=path,
                hint="assign unique ids (GraphBuilder does this for you)"))
        seen.add(label)

        if node.op not in SUPPORTED_OPS:
            diags.append(_err(
                "GRF-OP", f"unsupported op {node.op!r}",
                node=label, path=path,
                hint=f"engine implements: {', '.join(sorted(SUPPORTED_OPS))}"))
            produced[label] = None
            prev = label
            continue

        inputs = list(node.inputs) or [prev]
        expected_arity = 2 if node.op in _BINARY_OPS else 1
        if len(inputs) != expected_arity:
            diags.append(_err(
                "GRF-ARITY",
                f"{node.op} takes {expected_arity} input(s), wired to "
                f"{len(inputs)}", node=label, path=path))
        in_feats: list[int | None] = []
        for ref in inputs:
            if ref not in produced:
                diags.append(_err(
                    "GRF-DANGLING",
                    f"{node.op} consumes {ref!r}, which no earlier node "
                    f"produces", node=label, path=path,
                    hint="nodes may only reference 'input' or ids of "
                         "nodes above them"))
                in_feats.append(None)
            else:
                in_feats.append(produced[ref])

        upstream = in_feats[0] if in_feats else None
        out_feats = node.out_channels()

        if node.op in ("quant_conv2d", "conv2d"):
            weight = node.tensors.get("weight")
            if weight is not None and weight.ndim == 4:
                groups = int(node.attrs.get("groups", 1) or 1)
                needed = int(weight.shape[1]) * groups
                if upstream is not None and upstream != needed:
                    diags.append(_err(
                        "GRF-SHAPE",
                        f"{node.op} expects {needed} input channels "
                        f"(weight {tuple(weight.shape)} x {groups} "
                        f"groups) but upstream produces {upstream}",
                        node=label, path=path))
                bias = node.tensors.get("bias")
                if bias is not None and bias.size != weight.shape[0]:
                    diags.append(_err(
                        "GRF-SHAPE",
                        f"{node.op} bias has {bias.size} entries for "
                        f"{weight.shape[0]} output channels",
                        node=label, path=path))
        elif node.op in ("quant_linear", "linear"):
            weight = node.tensors.get("weight")
            if weight is not None and weight.ndim == 2:
                if upstream is not None and upstream != weight.shape[1]:
                    diags.append(_err(
                        "GRF-SHAPE",
                        f"{node.op} expects {weight.shape[1]} input "
                        f"features but upstream produces {upstream}",
                        node=label, path=path))
                bias = node.tensors.get("bias")
                if bias is not None and bias.size != weight.shape[0]:
                    diags.append(_err(
                        "GRF-SHAPE",
                        f"{node.op} bias has {bias.size} entries for "
                        f"{weight.shape[0]} output features",
                        node=label, path=path))
        elif node.op == "batchnorm2d":
            if (out_feats is not None and upstream is not None
                    and out_feats != upstream):
                diags.append(_err(
                    "GRF-SHAPE",
                    f"batchnorm2d normalizes {out_feats} channels but "
                    f"upstream produces {upstream}",
                    node=label, path=path))
            out_feats = out_feats if out_feats is not None else upstream
        elif node.op == "add":
            known = [f for f in in_feats if f is not None]
            if len(known) == 2 and known[0] != known[1]:
                diags.append(_err(
                    "GRF-SHAPE",
                    f"add joins branches with {known[0]} and {known[1]} "
                    f"channels", node=label, path=path))
            out_feats = known[0] if known else None
        elif node.op == "channel_scale":
            feats, gates = (in_feats + [None, None])[:2]
            if feats is not None and gates is not None and feats != gates:
                diags.append(_err(
                    "GRF-SHAPE",
                    f"channel_scale gates {gates} channels of a "
                    f"{feats}-channel feature map",
                    node=label, path=path))
            out_feats = feats
        elif node.op in ("global_avg_pool2d",) or node.op in _PASSTHROUGH:
            out_feats = upstream
        elif node.op == "flatten":
            # Spatial extent is not part of the IR, so flattened feature
            # counts are statically unknown (checked again by QNT layers
            # only when provable).
            out_feats = None

        if node.op in ("quant_conv2d", "quant_linear"):
            diags.extend(_check_quant_node(node, label, path))

        produced[label] = out_feats
        prev = label

    return diags
