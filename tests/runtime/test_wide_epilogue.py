"""Conv steps finish on wide ``(N, oh*ow*Cout)`` rows with tiled constants.

The fast, event and numpy plan differentials all run the same epilogue
code, so they cannot tell a wrong tiling from a right one.  These tests
compare the wide path against what does not share it: the narrow NCHW
sequence written out here.  ``test_plan_matrix.py`` holds fused plans
to unfused ones, whose batchnorm and activations run as their own
generic steps on NCHW arrays.
"""

import numpy as np
import pytest

from repro.analysis.ranges import verify_plan
from repro.nn.im2col import im2row, rows_to_nchw, weight_matrix
from repro.nn.functional_quant import weight_absmax_scale
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    LayerQuantSpec,
    QuantConv2d,
    ReLU6,
    Sequential,
    seed_init,
)
from repro.quant.affine import QuantParams, quantize
from repro.runtime import ops
from repro.runtime.graph import GraphBuilder, NodeSpec, export_sequential
from repro.runtime.plan import compile_graph

_C, _F = 4, 8


def _conv_bn_relu6_graph(groups, quant, rng):
    """conv (bias, stride 2, ``groups``) -> batchnorm -> relu6, with
    non-trivial bias and BN statistics so every constant matters."""
    seed_init(31 + groups)
    if quant:
        spec = LayerQuantSpec(act_bits=8, weight_bits=8, act_signed=True)
        conv = QuantConv2d(_C, _F, 3, spec=spec, stride=2, padding=1,
                           groups=groups)
    else:
        conv = Conv2d(_C, _F, 3, stride=2, padding=1, groups=groups)
    graph = export_sequential(Sequential(conv, BatchNorm2d(_F), ReLU6()),
                              name="conv-bn-relu6")
    conv_node, bn_node = graph.nodes[0], graph.nodes[1]
    conv_node.tensors["bias"] = rng.standard_normal(_F)
    bn_node.tensors["gamma"] = 1.0 + 0.5 * rng.standard_normal(_F)
    bn_node.tensors["beta"] = rng.standard_normal(_F)
    bn_node.tensors["running_mean"] = 0.3 * rng.standard_normal(_F)
    bn_node.tensors["running_var"] = 0.5 + rng.random(_F)
    return graph


def _narrow_reference(graph, x, groups, quant):
    """The per-group GEMM, then NCHW broadcasts of every per-channel
    constant: the sequence the step ran before it went wide."""
    conv, bn = graph.nodes[0], graph.nodes[1]
    w = conv.tensors["weight"]
    stride, padding = conv.attrs["stride"], conv.attrs["padding"]
    n, _, h, wd = x.shape
    oh = (h + 2 * padding - 3) // stride + 1
    ow = (wd + 2 * padding - 3) // stride + 1
    cpg, fpg = _C // groups, _F // groups
    if quant:
        act_scale = conv.attrs["act_scale"]
        x = quantize(x, QuantParams(scale=act_scale, zero_point=0.0,
                                    bits=8, signed=True))
        w_scale = weight_absmax_scale(w, 8, channel_axis=0)
        w = quantize(w, QuantParams(scale=w_scale, zero_point=0.0, bits=8,
                                    signed=True, axis=0))
        out_scale = float(act_scale) * w_scale[None, :]
    y = np.empty((n * oh * ow, _F))
    for g in range(groups):
        cols = slice(g * fpg, (g + 1) * fpg)
        a = im2row(x[:, g * cpg:(g + 1) * cpg], 3, 3, stride, padding)
        b = weight_matrix(w[cols])
        if quant:
            np.multiply(a @ b, out_scale[:, cols], out=y[:, cols],
                        dtype=np.float64)
        else:
            np.matmul(a, b, out=y[:, cols])
    y = rows_to_nchw(y, n, oh, ow)
    y = y + conv.tensors["bias"].reshape(1, -1, 1, 1)
    scale, shift = ops.batchnorm_params(bn.tensors, bn.attrs["eps"])
    return ops.relu6(ops.apply_batchnorm(y, scale, shift))


class TestConvStepWideFinish:
    @pytest.mark.parametrize("quant", [True, False],
                             ids=["quant_conv2d", "conv2d"])
    @pytest.mark.parametrize("groups", [1, 2, _C])
    def test_matches_narrow_nchw_sequence(self, groups, quant):
        rng = np.random.default_rng(groups)
        graph = _conv_bn_relu6_graph(groups, quant, rng)
        plan = compile_graph(graph, backend="mixgemm")
        assert len(plan.steps) == 1
        assert plan.steps[0].fused == ["batchnorm2d", "relu6"]
        # Two batch sizes and an odd spatial size: each input shape
        # builds its own lowering and tiled constants.
        for shape in [(3, _C, 13, 11), (1, _C, 13, 11), (3, _C, 13, 11)]:
            x = 2.0 * rng.standard_normal(shape)
            got = plan.run(x).output
            want = _narrow_reference(graph, x, groups, quant)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert len(plan.steps[0]._lowerings) == 2
        if quant:
            assert verify_plan(plan) == []


class TestUnfusedBatchNorm:
    """A batchnorm step broadcasts its per-channel constants over a
    channels-last or an NCHW input.  Both must equal
    :func:`ops.apply_batchnorm` byte for byte, strides included."""

    def _bn_plan(self, rng):
        b = GraphBuilder("bn-relu")
        bn = NodeSpec(op="batchnorm2d", attrs={"eps": 1e-5})
        bn.tensors.update(gamma=1.0 + rng.standard_normal(_F),
                          beta=rng.standard_normal(_F),
                          running_mean=rng.standard_normal(_F),
                          running_var=0.5 + rng.random(_F))
        t = b.add(bn, inputs=["input"])
        b.add(NodeSpec(op="relu"), inputs=[t])
        return b.build(), bn

    @pytest.mark.parametrize("fuse", [True, False])
    def test_matches_broadcast(self, fuse):
        rng = np.random.default_rng(11)
        graph, bn = self._bn_plan(rng)
        plan = compile_graph(graph, fuse=fuse)
        scale, shift = ops.batchnorm_params(bn.tensors, 1e-5)
        for shape in [(3, 13, 11, _F), (1, 5, 7, _F), (3, 13, 11, _F)]:
            nhwc = rng.standard_normal(shape)
            for x in (nhwc.transpose(0, 3, 1, 2),
                      np.ascontiguousarray(nhwc.transpose(0, 3, 1, 2))):
                want = ops.relu(ops.apply_batchnorm(x, scale, shift))
                got = plan.run(x).output
                assert got.tobytes() == want.tobytes()
                assert got.strides == want.strides
        assert verify_plan(plan) == []


class TestViewOpsKeepTheirInput:
    """``identity`` and ``flatten`` may return their input: a fused relu
    must not run in place on it."""

    @pytest.mark.parametrize("op", ["identity", "flatten"])
    def test_fused_relu_leaves_the_input_alone(self, op):
        b = GraphBuilder("view-relu")
        t = b.add(NodeSpec(op=op), inputs=["input"])
        b.add(NodeSpec(op="relu"), inputs=[t])
        plan = compile_graph(b.build())
        assert plan.steps[0].fused == ["relu"]
        x = np.random.default_rng(0).standard_normal((2, 3, 4, 4))
        before = x.copy()
        out = plan.run(x).output
        assert np.array_equal(x, before)
        assert np.array_equal(out.reshape(x.shape), np.maximum(x, 0.0))

    def test_add_relu_runs_in_place_on_the_sum(self):
        b = GraphBuilder("add-relu")
        t = b.add(NodeSpec(op="identity"), inputs=["input"])
        s = b.add(NodeSpec(op="add"), inputs=[t, "input"])
        b.add(NodeSpec(op="relu"), inputs=[s])
        plan = compile_graph(b.build())
        assert plan.steps[1].fused == ["relu"]
        x = np.random.default_rng(1).standard_normal((2, 3, 4, 4))
        before = x.copy()
        out = plan.run(x).output
        assert np.array_equal(x, before)
        assert np.array_equal(out, np.maximum(x + x, 0.0))
