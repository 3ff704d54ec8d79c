"""Guarded plans are fused: the same run as the unfused reference.

An armed :class:`InferenceEngine` compiles the fused plan and relies on
each fused step to report every node it absorbed to the NaN/Inf fence.
These tests hold it to the unfused plan (``_compile(..., fuse=False,
guards=...)``), where every node is its own step, with faults planted
where fusion could hide them: a NaN in the input (caught by the fence
on the raw input, before the first step), an inf conv output and a
batchnorm shift of ``-inf`` that the following relu would turn into 0.
Both sides must agree on the ``GuardError`` (label and message) or on
the output bytes, ``LayerStats``, fault events, recovered layers,
warnings and every observed range.
"""

import copy
import warnings

import numpy as np
import pytest

from repro.analysis.ranges import observing_ranges
from repro.core.errors import ReproError
from repro.models.builders import build_tiny
from repro.nn.layers import seed_init
from repro.robustness.errors import GuardError
from repro.robustness.faults import (
    FAULT_SITES,
    FaultPlan,
    demo_graph,
    demo_input,
)
from repro.runtime.engine import InferenceEngine
from repro.runtime.export_modules import export_model
from repro.runtime.graph import GraphBuilder, NodeSpec
from repro.runtime.plan import _compile, _effective_wiring

_TINY_NETS = ["alexnet", "vgg16", "resnet18", "mobilenet_v1",
              "regnet_x_400mf", "efficientnet_b0"]
_LEVELS = ["light", "standard", "full"]
_PLANTS = ["nan_input", "inf_conv", "bn_shift"]


class _UnfusedEngine(InferenceEngine):
    """The engine with its plan compiled unfused: one step per node."""

    @property
    def plan(self):
        if self._plan is None:
            self._plan = _compile(
                self.graph, self.backend, self.gemm_backend,
                self.accmem_bits, self._pack_cache, fuse=False,
                guards=self._guards)
        return self._plan


def _net(name):
    seed_init(13)
    model = build_tiny(name, act_bits=8, weight_bits=8)
    model.eval()
    return export_model(model, name=name)


def _plant(graph, x, plant):
    """Plant one fault; returns the input and the node that must trip
    the fence."""
    labels, inputs_of = _effective_wiring(graph)
    if plant == "nan_input":
        x = x.copy()
        x[0, 0, x.shape[2] // 2, x.shape[3] // 2] = np.nan
        return x, "input"
    if plant == "inf_conv":
        i, node = next((i, n) for i, n in enumerate(graph)
                       if n.op in ("quant_conv2d", "conv2d"))
        bias = np.zeros(node.tensors["weight"].shape[0])
        bias[-1] = np.inf
        node.tensors["bias"] = bias
        return x, labels[i]
    if plant == "bn_shift":
        consumers = {}
        for node, eff in zip(graph, inputs_of):
            for name in eff:
                consumers.setdefault(name, []).append(node.op)
        for i, node in enumerate(graph):
            after = consumers.get(labels[i])
            if node.op == "batchnorm2d" and after == ["relu"]:
                node.tensors["beta"] = node.tensors["beta"].copy()
                node.tensors["beta"][0] = -np.inf
                return x, labels[i]
        pytest.skip("no batchnorm feeds a relu in this graph")
    raise AssertionError(plant)


def _outcome(engine_cls, graph, x, level, fault_plan=None,
             backend="mixgemm"):
    """Everything observable about one guarded run."""
    engine = engine_cls(graph, backend=backend, guard_level=level,
                        fault_plan=fault_plan)
    with observing_ranges() as trace, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = engine.run(x)
        except GuardError as exc:
            run = ("error", exc.guard, str(exc))
        except ReproError as exc:
            run = ("raised", type(exc).__name__, str(exc))
        else:
            run = ("ok", result.output.tobytes(), result.output.shape,
                   [repr(s) for s in result.layer_stats],
                   [repr(e) for e in result.fault_events],
                   list(result.recovered_layers))
        finally:
            if engine.injector is not None:
                engine.injector.restore()
    ranges = {key: (repr(r.lo), repr(r.hi), r.count)
              for key, r in trace.observations.items()}
    warned = [(type(w.message).__name__, str(w.message)) for w in caught]
    return engine.plan, run, ranges, warned


def _check(graph_factory, x, level, plant=None, fault_plan=None,
           backend="mixgemm"):
    """Run both plans on fresh graphs; return the fused side's run, the
    planted fault's node and the warnings the run raised."""
    sides = []
    for engine_cls in (InferenceEngine, _UnfusedEngine):
        graph = graph_factory()
        xs, tripped = (x, None) if plant is None else _plant(graph, x, plant)
        sides.append(_outcome(engine_cls, graph, xs, level, fault_plan,
                              backend))
    (fused_plan, fused, f_ranges, f_warned), \
        (unfused_plan, unfused, u_ranges, u_warned) = sides
    assert fused_plan.info.fuse and not unfused_plan.info.fuse
    assert fused == unfused
    assert f_ranges == u_ranges
    assert f_warned == u_warned
    return fused, tripped, f_warned


@pytest.fixture(scope="module")
def resnet():
    graph = _net("resnet18")
    return lambda: copy.deepcopy(graph)


class TestDemoGraph:
    @pytest.mark.parametrize("level", _LEVELS)
    def test_clean_run(self, level):
        run, _, _ = _check(demo_graph, demo_input(), level)
        assert run[0] == "ok"

    @pytest.mark.parametrize("level", _LEVELS)
    @pytest.mark.parametrize("plant", ["nan_input", "inf_conv"])
    def test_planted_fault(self, level, plant):
        run, tripped, _ = _check(demo_graph, demo_input(), level, plant)
        assert run == ("error", "finite",
                       f"non-finite values after node {tripped!r}")

    @pytest.mark.parametrize("level", _LEVELS)
    @pytest.mark.parametrize("backend", ["numpy", "mixgemm"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_fenced(self, level, backend, bad):
        # Unfenced, the first quantizer clips an infinity to qmax and a
        # NaN casts to garbage codes: the run would finish on a finite,
        # wrong output.
        x = demo_input().copy()
        x[0, 0, 1, 2] = bad
        run, _, _ = _check(demo_graph, x, level, backend=backend)
        assert run == ("error", "finite",
                       "non-finite values after node 'input'")

    def test_unguarded_plan_keeps_no_input_fence(self):
        x = demo_input().copy()
        x[0, 0, 1, 2] = np.inf
        engine = InferenceEngine(demo_graph(), backend="numpy")
        assert not engine.plan._fence_input
        assert np.isfinite(engine.run(x).output).all()

    @pytest.mark.parametrize("level", ["light", "full"])
    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_fault_plan(self, level, site):
        plan = FaultPlan.generate(seed=5, n_faults=1, sites=(site,))
        _check(demo_graph, demo_input(), level, fault_plan=plan)


class TestSkippedFences:
    """Finite-preserving ops go unscanned: their inputs are fenced."""

    def test_unfenced_nodes_of_the_demo_graph(self):
        plan = InferenceEngine(demo_graph(), backend="mixgemm",
                               guard_level="light").plan
        labels = demo_graph().effective_ids()
        # conv, relu, conv, relu, flatten, linear
        assert plan._tap.unfenced == frozenset(
            labels[i] for i in (1, 3, 4))

    @pytest.mark.parametrize("op", ["relu", "relu6", "identity",
                                    "flatten", "max_pool2d"])
    def test_finite_op_on_the_raw_input_is_fenced(self, op):
        def graph():
            b = GraphBuilder("raw")
            attrs = {"kernel": 2, "stride": 2} if op == "max_pool2d" else {}
            b.add(NodeSpec(op=op, attrs=attrs, id="head"),
                  inputs=["input"])
            b.add(NodeSpec(op="relu", id="tail"), inputs=["head"])
            return b.build()

        # The raw input is fenced once, ahead of every step, so the
        # finite op that reads it needs no scan of its own.
        plan = InferenceEngine(graph(), backend="mixgemm",
                               guard_level="light").plan
        assert plan._tap.unfenced == frozenset({"head", "tail"})
        x = np.ones((1, 2, 4, 4))
        x[0, 1, 2, 3] = np.nan
        run, _, _ = _check(graph, x, "light")
        assert run == ("error", "finite",
                       "non-finite values after node 'input'")


class TestResnet18:
    """The fused resnet18 plan folds every batchnorm and relu it can."""

    def _input(self):
        return np.random.default_rng(7).standard_normal((1, 1, 12, 12))

    def test_fused_plan_is_the_unguarded_structure(self, resnet):
        engine = InferenceEngine(resnet(), backend="mixgemm",
                                 guard_level="light")
        info = engine.plan.info
        assert info.folded_batchnorms > 0 and info.fused_activations > 0

    @pytest.mark.parametrize("level", _LEVELS)
    def test_bn_shift_caught_at_the_batchnorm(self, resnet, level):
        run, tripped, _ = _check(resnet, self._input(), level, "bn_shift")
        assert run == ("error", "finite",
                       f"non-finite values after node {tripped!r}")

    @pytest.mark.parametrize("plant", ["nan_input", "inf_conv"])
    def test_planted_fault_light(self, resnet, plant):
        run, tripped, _ = _check(resnet, self._input(), "light", plant)
        assert run == ("error", "finite",
                       f"non-finite values after node {tripped!r}")

    def test_clean_light_run(self, resnet):
        run, _, warned = _check(resnet, self._input(), "light")
        assert run[0] == "ok"
        assert warned == []

    def test_fault_plan_full(self, resnet):
        plan = FaultPlan.generate(seed=3, n_faults=1, sites=("accmem",))
        run, _, _ = _check(resnet, self._input(), "full", fault_plan=plan)
        assert run[0] == "ok" and run[4]


@pytest.mark.slow
@pytest.mark.parametrize("name", _TINY_NETS)
@pytest.mark.parametrize("level", _LEVELS)
@pytest.mark.parametrize("plant", [None] + _PLANTS)
def test_tiny_net_sweep(name, level, plant):
    graph = _net(name)
    x = np.random.default_rng(11).standard_normal((2, 1, 12, 12))
    run, tripped, _ = _check(lambda: copy.deepcopy(graph), x, level, plant)
    if plant in ("inf_conv", "bn_shift"):
        assert run == ("error", "finite",
                       f"non-finite values after node {tripped!r}")


@pytest.mark.slow
@pytest.mark.parametrize("name", _TINY_NETS)
@pytest.mark.parametrize("site", FAULT_SITES)
def test_tiny_net_fault_plans(name, site):
    graph = _net(name)
    x = np.random.default_rng(11).standard_normal((1, 1, 12, 12))
    plan = FaultPlan.generate(seed=2, n_faults=1, sites=(site,))
    _check(lambda: copy.deepcopy(graph), x, "full", fault_plan=plan)
