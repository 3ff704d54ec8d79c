"""Compiled inference plans: bit-exactness, fusion, fallback, timing."""

import numpy as np
import pytest

from repro.analysis.ranges import verify_plan
from repro.core.binseg import value_range
from repro.models.builders import build_tiny
from repro.nn.layers import (
    Flatten,
    LayerQuantSpec,
    QuantConv2d,
    QuantLinear,
    ReLU,
    Sequential,
    seed_init,
)
from repro.robustness.faults import FaultPlan, demo_graph, demo_input
from repro.runtime.engine import InferenceEngine
from repro.runtime.export_modules import export_model
from repro.runtime.graph import GraphError, export_sequential
from repro.runtime.plan import compile_graph


def _stats_tuples(result):
    return [(s.layer, s.op, s.config, s.macs, s.cycles)
            for s in result.layer_stats]


@pytest.fixture(scope="module")
def resnet_graph():
    """A resnet18-style DAG: residual adds, batchnorms, fusable relus."""
    seed_init(13)
    model = build_tiny("resnet18", act_bits=8, weight_bits=8)
    model.eval()
    return export_model(model, name="resnet18")


@pytest.fixture(scope="module")
def resnet_input():
    rng = np.random.default_rng(7)
    return rng.standard_normal((2, 1, 12, 12))


class TestBitExactness:
    """The compiled plan must be indistinguishable from the engine."""

    @pytest.mark.parametrize("backend,gemm_backend", [
        ("numpy", "auto"),
        ("mixgemm", "auto"),
        ("mixgemm", "event"),
        ("mixgemm", "fast"),
    ])
    def test_demo_graph_outputs_and_stats(self, backend, gemm_backend):
        graph = demo_graph()
        x = demo_input()
        engine = InferenceEngine(graph, backend=backend,
                                 gemm_backend=gemm_backend)
        plan = compile_graph(graph, backend=backend,
                             gemm_backend=gemm_backend)
        ref = engine.run(x)
        got = plan.run(x)
        assert np.array_equal(got.output, ref.output)
        assert _stats_tuples(got) == _stats_tuples(ref)
        assert got.total_cycles == ref.total_cycles
        assert got.total_macs == ref.total_macs

    @pytest.mark.parametrize("backend,gemm_backend", [
        ("numpy", "auto"),
        ("mixgemm", "auto"),
    ])
    def test_resnet_dag_with_folds_and_fusion(self, resnet_graph,
                                              resnet_input, backend,
                                              gemm_backend):
        engine = InferenceEngine(resnet_graph, backend=backend,
                                 gemm_backend=gemm_backend)
        plan = compile_graph(resnet_graph, backend=backend,
                             gemm_backend=gemm_backend)
        assert plan.info.folded_batchnorms > 0
        assert plan.info.fused_activations > 0
        ref = engine.run(resnet_input)
        got = plan.run(resnet_input)
        assert np.array_equal(got.output, ref.output)
        assert _stats_tuples(got) == _stats_tuples(ref)
        assert got.total_cycles == ref.total_cycles

    def test_fusion_off_is_still_exact(self, resnet_graph, resnet_input):
        ref = compile_graph(resnet_graph, backend="mixgemm").run(
            resnet_input)
        plain = compile_graph(resnet_graph, backend="mixgemm",
                              fuse=False)
        assert plain.info.folded_batchnorms == 0
        assert plain.info.fused_activations == 0
        got = plain.run(resnet_input)
        assert np.array_equal(got.output, ref.output)
        assert got.total_cycles == ref.total_cycles

    def test_repeated_runs_are_stable(self):
        graph = demo_graph()
        x = demo_input()
        plan = compile_graph(graph, backend="mixgemm")
        first = plan.run(x)
        second = plan.run(x)
        assert np.array_equal(first.output, second.output)
        assert first.total_cycles == second.total_cycles

    def test_batch_size_change_between_runs(self):
        """Lowering scratch re-binds when the input shape changes."""
        graph = demo_graph()
        plan = compile_graph(graph, backend="mixgemm")
        engine = InferenceEngine(graph, backend="mixgemm")
        for batch in (1, 3, 2):
            x = demo_input(batch=batch)
            assert np.array_equal(plan.run(x).output,
                                  engine.run(x).output)

    def test_predict_matches_engine(self):
        graph = demo_graph()
        x = demo_input()
        plan = compile_graph(graph, backend="numpy")
        engine = InferenceEngine(graph, backend="numpy")
        assert np.array_equal(plan.predict(x), engine.predict(x))


class TestLayerStats:
    def test_layer_field_names_the_node(self):
        graph = demo_graph()
        x = demo_input()
        result = InferenceEngine(graph, backend="mixgemm").run(x)
        layers = [s.layer for s in result.layer_stats]
        assert all(layers)
        node_ids = {n.id or f"n{i}" for i, n in enumerate(graph)}
        assert set(layers) <= node_ids

    def test_plan_reports_same_layer_labels(self):
        graph = demo_graph()
        x = demo_input()
        ref = InferenceEngine(graph, backend="mixgemm").run(x)
        got = compile_graph(graph, backend="mixgemm").run(x)
        assert [s.layer for s in got.layer_stats] == \
            [s.layer for s in ref.layer_stats]


class TestEngineIntegration:
    def test_compiled_flag_serves_from_plan(self):
        graph = demo_graph()
        x = demo_input()
        baseline = InferenceEngine(graph, backend="mixgemm").run(x)
        engine = InferenceEngine(graph, backend="mixgemm", compiled=True)
        got = engine.run(x)
        assert engine._plan is not None
        assert np.array_equal(got.output, baseline.output)
        assert got.total_cycles == baseline.total_cycles

    def test_compile_returns_reused_plan(self):
        engine = InferenceEngine(demo_graph(), backend="mixgemm")
        plan = engine.compile()
        x = demo_input()
        got = engine.run(x)
        assert engine._plan is plan
        baseline = InferenceEngine(demo_graph(), backend="mixgemm").run(x)
        assert np.array_equal(got.output, baseline.output)

    def test_plan_shares_engine_pack_cache(self):
        engine = InferenceEngine(demo_graph(), backend="mixgemm",
                                 gemm_backend="event", compiled=True)
        engine.run(demo_input())
        # Prepacked weights + per-call activation packs all land in the
        # engine's own cache.
        assert engine.pack_stats.packs > 0


class TestRobustnessFallback:
    """Guards and fault injection transparently bypass the plan."""

    def test_guards_force_uncompiled_path(self):
        graph = demo_graph()
        x = demo_input()
        engine = InferenceEngine(graph, backend="mixgemm",
                                 guard_level="full", compiled=True)
        baseline = InferenceEngine(graph, backend="mixgemm",
                                   guard_level="full").run(x)
        got = engine.run(x)
        # The plan was never even built: the guarded path ran.
        assert engine._plan is None
        assert got.guard_level == "full"
        assert np.array_equal(got.output, baseline.output)

    def test_fault_plan_forces_uncompiled_path(self):
        graph = demo_graph()
        x = demo_input()
        plan = FaultPlan.generate(seed=3, n_faults=1, sites=("weight",))
        engine = InferenceEngine(graph, backend="mixgemm",
                                 fault_plan=plan, compiled=True)
        got = engine.run(x)
        assert engine._plan is None
        assert engine.injector is not None
        assert engine.injector.injected

    def test_guarded_compiled_detects_faults_like_uncompiled(self):
        """compiled=True must not weaken the PR-1 detection story."""
        graph = demo_graph()
        x = demo_input()
        plan = FaultPlan.generate(seed=5, n_faults=1, sites=("accmem",))
        engine = InferenceEngine(graph, backend="mixgemm",
                                 guard_level="full", fault_plan=plan,
                                 compiled=True)
        result = engine.run(x)
        reference = InferenceEngine(
            graph, backend="mixgemm", guard_level="full",
            fault_plan=FaultPlan.generate(seed=5, n_faults=1,
                                          sites=("accmem",))).run(x)
        assert len(result.fault_events) == len(reference.fault_events)


class TestPlanInfo:
    def test_info_counts(self, resnet_graph):
        plan = compile_graph(resnet_graph, backend="mixgemm",
                             gemm_backend="event")
        info = plan.info
        assert info.steps > 0
        assert info.backend == "mixgemm"
        assert info.gemm_backend == "event"
        assert info.bound_executors > 0
        assert info.prepacked_panels > 0
        assert len(info.fusions) == (info.folded_batchnorms
                                     + info.fused_activations)
        payload = info.as_dict()
        assert payload["steps"] == info.steps

    def test_describe_reports_fusions(self, resnet_graph):
        plan = compile_graph(resnet_graph, backend="numpy")
        payload = plan.describe()
        assert payload["folded_batchnorms"] == 6
        assert payload["fused_activations"] == 5

    def test_prepacked_weights_skip_first_run_packs(self):
        graph = demo_graph()
        plan = compile_graph(graph, backend="mixgemm",
                             gemm_backend="event")
        weight_packs = plan.pack_stats.packs
        assert plan.info.prepacked_panels == weight_packs
        plan.run(demo_input())
        # Running adds activation packs only; every weight panel was
        # already warm, so re-running adds the same activation count.
        after_first = plan.pack_stats.packs
        plan.run(demo_input())
        assert plan.pack_stats.packs == after_first


class TestValidation:
    def test_unknown_backend(self):
        with pytest.raises(GraphError):
            compile_graph(demo_graph(), backend="tpu")

    def test_unknown_gemm_backend(self):
        with pytest.raises(GraphError):
            compile_graph(demo_graph(), gemm_backend="warp")

    def test_unknown_op_rejected_at_compile_time(self):
        from repro.runtime.graph import GraphBuilder, NodeSpec

        b = GraphBuilder("bad")
        b.add(NodeSpec(op="teleport"), inputs=["input"])
        with pytest.raises(GraphError):
            compile_graph(b.build())

    def test_unknown_input_reference(self):
        from repro.runtime.graph import GraphBuilder, NodeSpec

        b = GraphBuilder("dangling")
        b.add(NodeSpec(op="relu"), inputs=["ghost"])
        graph = b.build()
        plan = compile_graph(graph)
        with pytest.raises(GraphError):
            plan.run(np.zeros((1, 2)))


def _quant_steps(plan):
    """``(step, bound GEMMs)`` for every quantized GEMM step of a plan."""
    for step in plan.steps:
        gemms = getattr(step, "gemms", None)
        if gemms is None and getattr(step, "gemm", None) is not None:
            gemms = [step.gemm]
        if gemms:
            yield step, gemms


class TestNarrowOperands:
    """Pin the dtype each layer runs in, so a silent fall-back to the
    int64 round trip fails here rather than only in the benchmark."""

    def test_resnet18_a8w8_stays_float32(self, resnet_graph, resnet_input):
        plan = compile_graph(resnet_graph, backend="mixgemm",
                             accmem_bits=64)
        plan.run(resnet_input)
        steps = list(_quant_steps(plan))
        assert len(steps) >= 5
        for step, gemms in steps:
            for gemm in gemms:
                assert gemm.mode == "fast"
                assert all(dtype is np.float32
                           for _, _, dtype in gemm.kernel.blocks)
                assert gemm.input_dtype is np.float32
            assert step._quant_act(np.zeros(3)).dtype == np.float32
            for low in getattr(step, "_lowerings", {}).values():
                assert low._buf.dtype == np.float32

    @pytest.mark.parametrize("accmem_bits", [16, 32])
    def test_wrapping_accmem_keeps_int64_operands(self, resnet_graph,
                                                  resnet_input,
                                                  accmem_bits):
        plan = compile_graph(resnet_graph, backend="mixgemm",
                             accmem_bits=accmem_bits)
        ref = InferenceEngine(resnet_graph, backend="mixgemm",
                              accmem_bits=accmem_bits).run(resnet_input)
        got = plan.run(resnet_input)
        assert np.array_equal(got.output, ref.output)
        for step, gemms in _quant_steps(plan):
            assert all(g.kernel.wrap_bits == accmem_bits for g in gemms)
            assert step._quant_act(np.zeros(3)).dtype == np.int64
            for low in getattr(step, "_lowerings", {}).values():
                assert low._buf.dtype == np.int64


# -- compiled-plan differential sweep ------------------------------------------

#: Saturates the wide activation widths, so 16-bit AccMems really wrap.
_SWEEP_INPUT = 8.0 * np.random.default_rng(0).normal(size=(1, 1, 24, 24))


def _sweep_graph(act_bits, weight_bits, act_signed):
    """conv (stride 2) -> grouped conv -> flatten -> linear, K up to 1152:
    multi-block at SIM_BLOCKING for every activation width above 3."""
    seed_init(act_bits * 10 + weight_bits)
    spec = LayerQuantSpec(act_bits=act_bits, weight_bits=weight_bits,
                          act_signed=act_signed)
    model = Sequential(
        QuantConv2d(1, 4, 3, spec=spec, stride=2, padding=1),
        ReLU(),
        QuantConv2d(4, 8, 3, spec=spec, padding=1, groups=2),
        ReLU(),
        Flatten(),
        QuantLinear(8 * 12 * 12, 3, spec=spec),
    )
    model.eval()
    return export_sequential(model, name="plan-sweep")


def _check_plan_differential(act_bits, weight_bits, act_signed,
                             accmem_bits):
    graph = _sweep_graph(act_bits, weight_bits, act_signed)
    plan = compile_graph(graph, backend="mixgemm", gemm_backend="fast",
                         accmem_bits=accmem_bits)
    got = plan.run(_SWEEP_INPUT)
    event = InferenceEngine(graph, backend="mixgemm", gemm_backend="event",
                            accmem_bits=accmem_bits).run(_SWEEP_INPUT)
    assert np.array_equal(got.output, event.output)
    assert _stats_tuples(got) == _stats_tuples(event)
    lo_a, hi_a = value_range(act_bits, act_signed)
    lo_b, hi_b = value_range(weight_bits, True)
    k_max = max(g.k for _, gemms in _quant_steps(plan) for g in gemms)
    if k_max * max(-lo_a, hi_a) * max(-lo_b, hi_b) < 1 << (accmem_bits - 1):
        # No accumulator can wrap: the integer reference must agree too.
        numpy = InferenceEngine(graph, backend="numpy").run(_SWEEP_INPUT)
        assert np.array_equal(got.output, numpy.output)
    assert verify_plan(plan) == []


class TestPlanDifferential:
    """Compiled fast plan vs the event engine (outputs + per-layer
    cycles), vs the numpy reference where no AccMem can wrap, and a
    clean plan-equivalence proof -- a 3-point tier-1 subset."""

    @pytest.mark.parametrize("act_bits,weight_bits,act_signed,accmem_bits", [
        (8, 8, False, 64),
        (8, 8, False, 16),
        (3, 7, True, 32),
    ])
    def test_subset(self, act_bits, weight_bits, act_signed, accmem_bits):
        _check_plan_differential(act_bits, weight_bits, act_signed,
                                 accmem_bits)

    def test_subset_really_wraps(self):
        graph = _sweep_graph(8, 8, False)
        wrapped = compile_graph(graph, backend="mixgemm",
                                accmem_bits=16).run(_SWEEP_INPUT)
        numpy = InferenceEngine(graph, backend="numpy").run(_SWEEP_INPUT)
        assert not np.array_equal(wrapped.output, numpy.output)


@pytest.mark.slow
class TestPlanDifferentialSweep:
    """Every 2..8-bit pair, signed and unsigned activations, three
    AccMem widths."""

    @pytest.mark.parametrize("accmem_bits", [16, 32, 64])
    @pytest.mark.parametrize("act_signed", [False, True])
    @pytest.mark.parametrize("weight_bits", range(2, 9))
    @pytest.mark.parametrize("act_bits", range(2, 9))
    def test_all_pairs(self, act_bits, weight_bits, act_signed,
                       accmem_bits):
        _check_plan_differential(act_bits, weight_bits, act_signed,
                                 accmem_bits)
