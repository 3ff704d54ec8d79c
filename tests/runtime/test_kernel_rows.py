"""Kernel-row conv lowering: one panel copy, one GEMM per kernel row.

A stride-1, single-group quantized conv whose GEMM is one fast kc-block
that no AccMem wraps sums ``KH`` shifted GEMM views of a kernel-row
panel instead of multiplying the im2row matrix.  These tests hold it to
the oracles that do not share that path: the numpy-backend plan (plain
im2row, integer GEMM) for the output bytes and the event-backend plan
(im2row through the simulated engine) for the per-layer stats and the
observed act/acc extrema.  Every other conv must keep ``rows()``.
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


def _conv_graph(kernel, padding, bits=(8, 8), signed=True, stride=1,
                groups=1, quant=True):
    seed_init(41 + 7 * kernel + padding)
    if quant:
        spec = LayerQuantSpec(act_bits=bits[0], weight_bits=bits[1],
                              act_signed=signed)
        conv = QuantConv2d(_C, _F, kernel, spec=spec, stride=stride,
                           padding=padding, groups=groups)
    else:
        conv = Conv2d(_C, _F, kernel, stride=stride, padding=padding,
                      groups=groups)
    return export_sequential(Sequential(conv), name="conv")


def _input(batch, seed=0):
    return np.random.default_rng(seed).standard_normal((batch, _C, _H, _W))


def _stats(result):
    return [(s.layer, s.op, s.config, s.macs, s.cycles)
            for s in result.layer_stats]


def _lowerings(plan):
    return [low for step in plan.steps
            for low in getattr(step, "_lowerings", {}).values()]


def _check_against_oracles(graph, batches, **kwargs):
    fast = compile_graph(graph, backend="mixgemm", gemm_backend="fast",
                         **kwargs)
    event = compile_graph(graph, backend="mixgemm", gemm_backend="event",
                          **kwargs)
    ref = compile_graph(graph, backend="numpy")
    assert fast.steps[0].kernel_rows
    for batch in batches:
        x = _input(batch, seed=batch)
        got = fast.run(x)
        assert got.output.tobytes() == ref.run(x).output.tobytes()
        assert _stats(got) == _stats(event.run(x))
    assert all(low.kernel_rows for low in _lowerings(fast))
    assert verify_plan(fast) == []


_SWEEP = list(itertools.product([3, 5], [0, 1, 2], _BITS, [True, False]))


@pytest.mark.parametrize("kernel,padding,bits,signed", [
    (3, 1, (8, 8), True), (5, 2, (4, 4), False), (3, 0, (2, 2), True),
])
def test_kernel_rows_match_oracles(kernel, padding, bits, signed):
    _check_against_oracles(_conv_graph(kernel, padding, bits, signed),
                           batches=(1, 3))


@pytest.mark.slow
@pytest.mark.parametrize("kernel,padding,bits,signed", _SWEEP)
def test_kernel_rows_match_oracles_sweep(kernel, padding, bits, signed):
    _check_against_oracles(_conv_graph(kernel, padding, bits, signed),
                           batches=(1, 3, 32))


def _rows_only(plan, x):
    plan.run(x)
    lows = _lowerings(plan)
    assert lows and not any(low.kernel_rows for low in lows)
    assert not any(getattr(step, "kernel_rows", False)
                   for step in plan.steps)


@pytest.mark.parametrize("case", [
    "stride2", "groups2", "accmem16", "float", "event", "numpy"])
def test_excluded_convs_keep_rows(case):
    graph = _conv_graph(
        3, 1, stride=2 if case == "stride2" else 1,
        groups=2 if case == "groups2" else 1, quant=case != "float")
    kwargs = {"backend": "mixgemm", "gemm_backend": "fast"}
    if case == "accmem16":
        kwargs["accmem_bits"] = 16
    elif case == "event":
        kwargs["gemm_backend"] = "event"
    elif case == "numpy":
        kwargs = {"backend": "numpy"}
    _rows_only(compile_graph(graph, **kwargs), _input(2))


def test_standard_guards_keep_rows():
    graph = _conv_graph(3, 1)
    engine = InferenceEngine(graph, backend="mixgemm",
                             guard_level="standard")
    _rows_only(engine.plan, _input(2))
    light = InferenceEngine(graph, backend="mixgemm", guard_level="light")
    assert light.plan.steps[0].kernel_rows


def test_resnet18_extrema_match_event_plan():
    """The panel holds every halo-buffer element (stride 1), so its act
    extrema equal those of the im2row rows the event plan multiplies."""
    seed_init(13)
    model = build_tiny("resnet18", act_bits=8, weight_bits=8)
    model.eval()
    graph = export_model(model, name="resnet18")
    x = np.random.default_rng(3).standard_normal((3, 1, 12, 12))
    traces = {}
    for gemm_backend in ("fast", "event"):
        plan = compile_graph(graph, backend="mixgemm",
                             gemm_backend=gemm_backend)
        with observing_ranges() as trace:
            plan.run(x)
        traces[gemm_backend] = {
            key: (r.lo, r.hi, r.count)
            for key, r in trace.observations.items() if key[1] != "out"}
        if gemm_backend == "fast":
            assert sum(s.kernel_rows for s in plan.steps
                       if hasattr(s, "kernel_rows")) == 4
    assert traces["fast"] == traces["event"]
