"""Direct 1x1 conv lowering: the input buffer is the A matrix.

A conv with a 1x1 kernel, padding 0 and one group quantizes (or copies)
only the pixels its windows read, ``x[:, :, ::s, ::s]``, into an
``(N, OH, OW, C)`` buffer and hands that buffer to the GEMM without a
lowering copy.  Every backend takes the direct path, so the oracles are
plans with the step's ``direct`` choice switched off before their first
run: the numpy plan's im2row copy for the output bytes, the event
plan's for the per-layer stats and the observed act/acc extrema.
"""

import itertools

import numpy as np
import pytest

from repro.analysis.ranges import observing_ranges, verify_plan
from repro.models.builders import build_tiny
from repro.nn.layers import (
    Conv2d,
    LayerQuantSpec,
    QuantConv2d,
    Sequential,
    seed_init,
)
from repro.runtime.engine import InferenceEngine
from repro.runtime.export_modules import export_model
from repro.runtime.graph import export_sequential
from repro.runtime.plan import compile_graph

_C, _F = 4, 6
_H, _W = 13, 11
_BITS = [(8, 8), (4, 4), (2, 2)]


def _conv_graph(kernel=1, stride=1, padding=0, groups=1, bits=(8, 8),
                quant=True):
    seed_init(61 + 5 * stride + kernel)
    if quant:
        spec = LayerQuantSpec(act_bits=bits[0], weight_bits=bits[1],
                              act_signed=True)
        conv = QuantConv2d(_C, _F, kernel, spec=spec, stride=stride,
                           padding=padding, groups=groups)
    else:
        conv = Conv2d(_C, _F, kernel, stride=stride, padding=padding,
                      groups=groups)
    return export_sequential(Sequential(conv), name="conv1x1")


def _input(batch):
    return 2.0 * np.random.default_rng(batch).standard_normal(
        (batch, _C, _H, _W))


def _stats(result):
    return [(s.layer, s.op, s.config, s.macs, s.cycles)
            for s in result.layer_stats]


def _im2row(plan):
    """``plan`` with every conv step's direct lowering switched off."""
    for step in plan.steps:
        if hasattr(step, "direct"):
            step.direct = False
    return plan


def _lowerings(plan):
    return [low for step in plan.steps
            for low in getattr(step, "_lowerings", {}).values()]


def _check_against_oracles(stride, bits, accmem_bits, batches):
    graph = _conv_graph(stride=stride, bits=bits)
    fast = compile_graph(graph, backend="mixgemm", gemm_backend="fast",
                         accmem_bits=accmem_bits)
    event = _im2row(compile_graph(graph, backend="mixgemm",
                                  gemm_backend="event",
                                  accmem_bits=accmem_bits))
    numpy_plan = compile_graph(graph, backend="numpy")
    ref = _im2row(compile_graph(graph, backend="numpy"))
    assert fast.steps[0].direct and numpy_plan.steps[0].direct
    assert not fast.steps[0].kernel_rows
    for batch in batches:
        x = _input(batch)
        got = fast.run(x)
        want = ref.run(x).output.tobytes()
        assert got.output.tobytes() == want
        assert numpy_plan.run(x).output.tobytes() == want
        assert _stats(got) == _stats(event.run(x))
    assert all(low.direct for low in _lowerings(fast))
    assert not any(low.direct for low in _lowerings(event))
    assert verify_plan(fast) == []


@pytest.mark.parametrize("stride,bits,accmem_bits", [
    (1, (8, 8), 64), (2, (4, 4), 16), (3, (2, 2), 64),
])
def test_direct_matches_oracles(stride, bits, accmem_bits):
    _check_against_oracles(stride, bits, accmem_bits, batches=(1, 3))


@pytest.mark.slow
@pytest.mark.parametrize("stride,bits,accmem_bits",
                         list(itertools.product([1, 2, 3], _BITS, [64, 16])))
def test_direct_matches_oracles_sweep(stride, bits, accmem_bits):
    _check_against_oracles(stride, bits, accmem_bits, batches=(1, 3, 32))


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_float_direct_matches_im2row(stride):
    """A float 1x1 conv hands BLAS the same C-contiguous operand."""
    graph = _conv_graph(stride=stride, quant=False)
    plan = compile_graph(graph, backend="mixgemm")
    ref = _im2row(compile_graph(graph, backend="mixgemm"))
    assert plan.steps[0].direct
    for batch in (1, 3):
        x = _input(batch)
        assert plan.run(x).output.tobytes() == ref.run(x).output.tobytes()


@pytest.mark.parametrize("stride", [1, 2])
def test_guarded_direct_matches_im2row(stride):
    """A guarded GEMM reads the buffer too; results and stats hold."""
    graph = _conv_graph(stride=stride)
    x = _input(2)
    got = InferenceEngine(graph, backend="mixgemm",
                          guard_level="full").run(x)
    want = InferenceEngine(graph, backend="mixgemm",
                           guard_level="full")
    _im2row(want.plan)
    want = want.run(x)
    assert got.output.tobytes() == want.output.tobytes()
    assert _stats(got) == _stats(want)
    assert got.fault_events == want.fault_events == []


@pytest.mark.parametrize("case", ["kernel3", "kernel3-stride2", "padded",
                                  "grouped"])
def test_other_convs_keep_rows(case):
    graph = _conv_graph(kernel=3 if case.startswith("kernel3") else 1,
                        stride=2 if case == "kernel3-stride2" else 1,
                        padding=1 if case != "grouped" else 0,
                        groups=2 if case == "grouped" else 1)
    for kwargs in ({"backend": "mixgemm", "gemm_backend": "fast"},
                   {"backend": "numpy"}):
        plan = compile_graph(graph, **kwargs)
        plan.run(_input(2))
        assert not plan.steps[0].direct
        assert not any(low.direct for low in _lowerings(plan))


@pytest.mark.parametrize("stride", [1, 2])
def test_extrema_match_event_im2row_plan(stride):
    """At stride 2 the buffer holds only the read grid, which is
    exactly the pixels the im2row rows hold, so the extrema agree."""
    graph = _conv_graph(stride=stride)
    x = _input(3)
    traces = {}
    for name, plan in (
            ("fast", compile_graph(graph, backend="mixgemm",
                                   gemm_backend="fast")),
            ("event", _im2row(compile_graph(graph, backend="mixgemm",
                                            gemm_backend="event")))):
        with observing_ranges() as trace:
            plan.run(x)
        traces[name] = {key: (r.lo, r.hi, r.count)
                        for key, r in trace.observations.items()}
    assert any(key[1] == "act" for key in traces["fast"])
    assert traces["fast"] == traces["event"]


_TINY_NETS = ["resnet18", "mobilenet_v1", "regnet_x_400mf",
              "efficientnet_b0"]


@pytest.mark.parametrize("name", _TINY_NETS)
def test_tiny_net_direct_steps(name):
    """Each of these nets has 1x1 convs; its plan serves the bytes and
    stats of the same plan lowering them through im2row, and the act
    extrema of that plan's event twin."""
    seed_init(5)
    model = build_tiny(name, act_bits=8, weight_bits=8)
    model.eval()
    graph = export_model(model, name=name)
    x = np.random.default_rng(9).standard_normal((3, 1, 13, 11))
    for fuse in (True, False):
        plan = compile_graph(graph, backend="mixgemm", fuse=fuse)
        ref = _im2row(compile_graph(graph, backend="mixgemm", fuse=fuse))
        assert any(getattr(s, "direct", False) for s in plan.steps)
        got, want = plan.run(x), ref.run(x)
        assert got.output.tobytes() == want.output.tobytes()
        assert _stats(got) == _stats(want)
        assert verify_plan(plan) == []
