"""Deployment graph IR (the paper's ONNX stage, Figure 3).

The paper's workflow exports the QAT-trained PyTorch model to ONNX and
runs it through ONNX Runtime with Mix-GEMM as the BLAS backend.  This
module is the offline-equivalent: a declarative operator graph with JSON
serialization.  :func:`export_sequential` converts a trained
:class:`~repro.nn.layers.Sequential` model (quant layers included --
weights, bitwidths and learned activation scales travel with the graph);
:mod:`repro.runtime.plan` compiles it and :mod:`repro.runtime.engine`
runs the plan on a chosen backend.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.core.binseg import SUPPORTED_BITWIDTHS
from repro.core.errors import ReproError
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    QuantConv2d,
    QuantLinear,
    ReLU,
    ReLU6,
    Sequential,
    SiLU,
)

FORMAT_VERSION = 1


class GraphError(ReproError, ValueError):
    """Raised for malformed graphs or unsupported layers."""


#: Ops whose attrs carry quantization metadata that must be validated.
_QUANT_OPS = frozenset({"quant_conv2d", "quant_linear"})

#: Every operator the runtime implements.  The static graph contract
#: checker and :func:`repro.runtime.plan.compile_graph` reject anything
#: outside this set before a run is ever attempted; keep in sync with
#: the plan's step builders (``_ConvStep``, ``_QuantLinearStep`` and
#: ``_GenericStep._build`` in :mod:`repro.runtime.plan`; asserted by
#: ``tests/runtime/test_plan.py``).
SUPPORTED_OPS = frozenset({
    "add", "avg_pool2d", "batchnorm2d", "channel_scale", "conv2d",
    "flatten", "global_avg_pool2d", "identity", "linear", "max_pool2d",
    "quant_conv2d", "quant_linear", "relu", "relu6", "sigmoid", "silu",
})


def _load_tensor(name: str, spec: Any) -> np.ndarray:
    """Decode one serialized tensor, validating shape against payload."""
    if not isinstance(spec, dict) or "shape" not in spec or "data" not in spec:
        raise GraphError(
            f"tensor {name!r} must be a dict with 'shape' and 'data'"
        )
    shape = spec["shape"]
    if (not isinstance(shape, (list, tuple))
            or not all(isinstance(d, int) and d >= 0 for d in shape)):
        raise GraphError(f"tensor {name!r} has malformed shape {shape!r}")
    try:
        flat = np.asarray(spec["data"], dtype=np.float64).ravel()
    except (TypeError, ValueError) as exc:
        raise GraphError(f"tensor {name!r} holds non-numeric data: {exc}"
                         ) from None
    expected = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if flat.size != expected:
        raise GraphError(
            f"tensor {name!r} has {flat.size} elements but shape "
            f"{list(shape)} needs {expected}"
        )
    if not np.all(np.isfinite(flat)):
        raise GraphError(f"tensor {name!r} contains non-finite values")
    return flat.reshape(shape)


def _validate_quant_attrs(op: str, attrs: dict[str, Any]) -> None:
    """Reject quantization metadata the runtime cannot execute."""
    for key in ("act_bits", "weight_bits"):
        bits = attrs.get(key)
        if bits is None:
            continue
        if not isinstance(bits, int) or bits not in SUPPORTED_BITWIDTHS:
            raise GraphError(
                f"{op}: {key}={bits!r} outside the supported "
                f"{SUPPORTED_BITWIDTHS[0]}-{SUPPORTED_BITWIDTHS[-1]} "
                f"bit range"
            )
    scale = attrs.get("act_scale")
    if scale is not None:
        if (not isinstance(scale, (int, float))
                or not math.isfinite(scale) or scale <= 0):
            raise GraphError(
                f"{op}: act_scale={scale!r} must be a finite positive number"
            )


@dataclass
class NodeSpec:
    """One operator: a type tag, attributes, and optional tensors.

    ``inputs`` wires the dataflow graph: a list of producer node ids (or
    the reserved name ``"input"`` for the model input).  When empty, the
    node implicitly consumes the previous node's output -- the linear
    chain :func:`export_sequential` emits.  ``id`` names this node's
    output; when empty the engine assigns ``n<i>``.
    """

    op: str
    attrs: dict[str, Any] = field(default_factory=dict)
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    inputs: list[str] = field(default_factory=list)
    id: str = ""

    def to_json(self) -> dict:
        payload = {
            "op": self.op,
            "attrs": self.attrs,
            "tensors": {
                name: {"shape": list(t.shape), "data": t.ravel().tolist()}
                for name, t in self.tensors.items()
            },
        }
        if self.inputs:
            payload["inputs"] = self.inputs
        if self.id:
            payload["id"] = self.id
        return payload

    # -- static metadata (consumed by repro.analysis, no execution) --------

    def gemm_k(self) -> Optional[int]:
        """Inner-product depth K of this node's im2col-lowered GEMM.

        ``quant_conv2d`` lowers to a GEMM whose K is
        ``(in_channels / groups) * kh * kw``; ``quant_linear``'s K is its
        input feature count.  ``None`` for non-GEMM ops or when the
        weight tensor is missing/malformed -- the graph contract reports
        those separately.
        """
        weight = self.tensors.get("weight")
        if weight is None:
            return None
        if self.op in ("quant_conv2d", "conv2d") and weight.ndim == 4:
            return int(weight.shape[1] * weight.shape[2] * weight.shape[3])
        if self.op in ("quant_linear", "linear") and weight.ndim == 2:
            return int(weight.shape[1])
        return None

    def out_channels(self) -> Optional[int]:
        """Channel (or feature) count this node produces, if derivable."""
        weight = self.tensors.get("weight")
        if weight is not None and self.op in (
                "quant_conv2d", "conv2d", "quant_linear", "linear"):
            return int(weight.shape[0])
        if self.op == "batchnorm2d" and "gamma" in self.tensors:
            return int(self.tensors["gamma"].size)
        return None

    @classmethod
    def from_json(cls, payload: dict) -> "NodeSpec":
        if not isinstance(payload, dict):
            raise GraphError(f"node payload must be a dict, got "
                             f"{type(payload).__name__}")
        op = payload.get("op")
        if not isinstance(op, str) or not op:
            raise GraphError("node payload is missing its 'op' string")
        tensors_spec = payload.get("tensors", {})
        if not isinstance(tensors_spec, dict):
            raise GraphError(f"{op}: 'tensors' must be a dict")
        tensors = {
            name: _load_tensor(name, spec)
            for name, spec in tensors_spec.items()
        }
        attrs = dict(payload.get("attrs", {}))
        if op in _QUANT_OPS:
            _validate_quant_attrs(op, attrs)
        return cls(op=op, attrs=attrs, tensors=tensors,
                   inputs=list(payload.get("inputs", [])),
                   id=payload.get("id", ""))


@dataclass
class GraphModel:
    """A linear operator graph plus metadata."""

    nodes: list[NodeSpec] = field(default_factory=list)
    name: str = "model"

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def to_json(self) -> str:
        return json.dumps({
            "format_version": FORMAT_VERSION,
            "name": self.name,
            "nodes": [n.to_json() for n in self.nodes],
        })

    @classmethod
    def from_json(cls, text: str) -> "GraphModel":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(f"model file is not valid JSON: {exc}"
                             ) from None
        if not isinstance(payload, dict):
            raise GraphError("model payload must be a JSON object")
        version = payload.get("format_version")
        if version != FORMAT_VERSION:
            raise GraphError(f"unsupported model format version {version}")
        nodes = payload.get("nodes")
        if not isinstance(nodes, list):
            raise GraphError("model payload needs a 'nodes' list")
        return cls(
            nodes=[NodeSpec.from_json(n) for n in nodes],
            name=payload.get("name", "model"),
        )

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "GraphModel":
        with open(path) as f:
            return cls.from_json(f.read())

    def quantized_nodes(self) -> list[NodeSpec]:
        return [n for n in self.nodes
                if n.op in ("quant_conv2d", "quant_linear")]

    def effective_ids(self) -> list[str]:
        """Node output ids exactly as the engine assigns them at run time
        (explicit ``id`` or the positional ``n<i>`` default)."""
        return [n.id or f"n{i}" for i, n in enumerate(self.nodes)]


def _quant_attrs(layer) -> dict[str, Any]:
    spec = layer.spec
    attrs: dict[str, Any] = {
        "act_bits": spec.act_bits,
        "weight_bits": spec.weight_bits,
        "act_signed": spec.act_signed,
    }
    if spec.act_bits is not None:
        attrs["act_scale"] = float(np.exp(layer.act_log_scale.data))
    return attrs


def _export_layer(layer) -> NodeSpec:
    # Order matters: quant subclasses before their float bases.
    if isinstance(layer, QuantConv2d):
        node = NodeSpec(op="quant_conv2d", attrs={
            "stride": layer.stride, "padding": layer.padding,
            "groups": layer.groups, **_quant_attrs(layer),
        })
        node.tensors["weight"] = layer.weight.data.copy()
        if layer.bias is not None:
            node.tensors["bias"] = layer.bias.data.copy()
        return node
    if isinstance(layer, QuantLinear):
        node = NodeSpec(op="quant_linear", attrs=_quant_attrs(layer))
        node.tensors["weight"] = layer.weight.data.copy()
        if layer.bias is not None:
            node.tensors["bias"] = layer.bias.data.copy()
        return node
    if isinstance(layer, Conv2d):
        node = NodeSpec(op="conv2d", attrs={
            "stride": layer.stride, "padding": layer.padding,
            "groups": layer.groups,
        })
        node.tensors["weight"] = layer.weight.data.copy()
        if layer.bias is not None:
            node.tensors["bias"] = layer.bias.data.copy()
        return node
    if isinstance(layer, Linear):
        node = NodeSpec(op="linear")
        node.tensors["weight"] = layer.weight.data.copy()
        if layer.bias is not None:
            node.tensors["bias"] = layer.bias.data.copy()
        return node
    if isinstance(layer, BatchNorm2d):
        node = NodeSpec(op="batchnorm2d", attrs={"eps": layer.eps})
        node.tensors["gamma"] = layer.gamma.data.copy()
        node.tensors["beta"] = layer.beta.data.copy()
        node.tensors["running_mean"] = layer.running_mean.copy()
        node.tensors["running_var"] = layer.running_var.copy()
        return node
    if isinstance(layer, ReLU6):
        return NodeSpec(op="relu6")
    if isinstance(layer, ReLU):
        return NodeSpec(op="relu")
    if isinstance(layer, SiLU):
        return NodeSpec(op="silu")
    if isinstance(layer, MaxPool2d):
        return NodeSpec(op="max_pool2d", attrs={
            "kernel": layer.kernel_size, "stride": layer.stride,
        })
    if isinstance(layer, AvgPool2d):
        return NodeSpec(op="avg_pool2d", attrs={
            "kernel": layer.kernel_size, "stride": layer.stride,
        })
    if isinstance(layer, GlobalAvgPool2d):
        return NodeSpec(op="global_avg_pool2d")
    if isinstance(layer, Flatten):
        return NodeSpec(op="flatten")
    if isinstance(layer, Identity):
        return NodeSpec(op="identity")
    raise GraphError(
        f"cannot export layer of type {type(layer).__name__}; "
        f"export supports Sequential models of standard layers"
    )


def export_sequential(model: Sequential, name: str = "model") -> GraphModel:
    """Export a trained Sequential model to the deployment IR."""
    if not isinstance(model, Sequential):
        raise GraphError("export_sequential expects a Sequential model")
    return GraphModel(
        nodes=[_export_layer(layer) for layer in model],
        name=name,
    )


class GraphBuilder:
    """Imperative construction of DAG-shaped deployment graphs.

    Residual and squeeze-excite topologies need explicit wiring; the
    builder hands out node ids so branches can reference each other::

        b = GraphBuilder("resnet-block")
        trunk = b.add(conv_node, inputs=["input"])
        trunk = b.add(NodeSpec(op="relu"), inputs=[trunk])
        out = b.add(NodeSpec(op="add"), inputs=[trunk, "input"])
    """

    def __init__(self, name: str = "model") -> None:
        self._graph = GraphModel(name=name)
        self._counter = 0

    def add(self, node: NodeSpec,
            inputs: list[str] | None = None) -> str:
        """Append a node; returns its output id."""
        if inputs is not None:
            node.inputs = list(inputs)
        if not node.id:
            node.id = f"n{self._counter}"
        self._counter += 1
        self._graph.nodes.append(node)
        return node.id

    def build(self) -> GraphModel:
        return self._graph
