"""Compiled inference plans: bit-exactness, fusion, guards, timing."""

import hashlib
import json
import pathlib
import weakref

import numpy as np
import pytest

from repro.analysis.ranges import verify_plan
from repro.core import packcache
from repro.models.builders import build_tiny
from repro.nn.layers import seed_init
from repro.robustness.errors import GuardError
from repro.robustness.faults import FaultPlan, demo_graph, demo_input
from repro.runtime.engine import InferenceEngine
from repro.runtime.export_modules import export_model
from repro.runtime.graph import (
    SUPPORTED_OPS,
    GraphBuilder,
    GraphError,
    NodeSpec,
)
from repro.runtime.plan import _GuardedGemm, compile_graph

#: Recorded reference runs (see ``test_interpreter_golden.py``); the
#: fused plans must reproduce them.
GOLDEN = json.loads((pathlib.Path(__file__).parent / "data"
                     / "interpreter_golden.json").read_text())["cases"]


def _stats_tuples(result):
    return [(s.layer, s.op, s.config, s.macs, s.cycles)
            for s in result.layer_stats]


def _assert_matches_golden(result, name, backend, gemm_backend):
    """Output bytes and per-layer stats equal the recorded guard-free run.

    ``auto`` resolves per layer to the fast path or the event engine,
    which agree bit for bit and cycle for cycle, so on the simulator it
    is checked against the recorded event run.
    """
    if backend == "mixgemm" and gemm_backend == "auto":
        gemm_backend = "event"
    want = GOLDEN[f"{name}/{backend}/{gemm_backend}/off/acc64"]
    out = np.ascontiguousarray(result.output, dtype=np.float64)
    assert hashlib.sha256(out.tobytes()).hexdigest() == \
        want["output_sha256"]
    assert [list(t) for t in _stats_tuples(result)] == want["layer_stats"]


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
    """The fused plan must be indistinguishable from the interpreter's
    recorded runs."""

    @pytest.mark.parametrize("backend,gemm_backend", [
        ("numpy", "auto"),
        ("mixgemm", "auto"),
        ("mixgemm", "event"),
        ("mixgemm", "fast"),
    ])
    def test_demo_graph_outputs_and_stats(self, backend, gemm_backend):
        plan = compile_graph(demo_graph(), backend=backend,
                             gemm_backend=gemm_backend)
        _assert_matches_golden(plan.run(demo_input()), "demo", backend,
                               gemm_backend)

    @pytest.mark.parametrize("backend,gemm_backend", [
        ("numpy", "auto"),
        ("mixgemm", "auto"),
    ])
    def test_resnet_dag_with_folds_and_fusion(self, resnet_graph,
                                              resnet_input, backend,
                                              gemm_backend):
        plan = compile_graph(resnet_graph, backend=backend,
                             gemm_backend=gemm_backend)
        assert plan.info.folded_batchnorms > 0
        assert plan.info.fused_activations > 0
        _assert_matches_golden(plan.run(resnet_input), "resnet18", backend,
                               gemm_backend)

    def test_repeated_runs_are_stable(self):
        graph = demo_graph()
        x = demo_input()
        plan = compile_graph(graph, backend="mixgemm")
        first = plan.run(x)
        second = plan.run(x)
        assert np.array_equal(first.output, second.output)
        assert first.total_cycles == second.total_cycles

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
        got = compile_graph(demo_graph(), backend="mixgemm").run(
            demo_input())
        assert [s.layer for s in got.layer_stats] == [
            row[0] for row in GOLDEN["demo/mixgemm/event/off/acc64"][
                "layer_stats"]]


class TestEngineIntegration:
    def test_engine_serves_from_plan(self):
        graph = demo_graph()
        x = demo_input()
        engine = InferenceEngine(graph, backend="mixgemm")
        got = engine.run(x)
        baseline = compile_graph(graph, backend="mixgemm").run(x)
        assert engine.plan.info.fuse
        assert np.array_equal(got.output, baseline.output)
        assert _stats_tuples(got) == _stats_tuples(baseline)

    def test_compiled_option_is_gone(self):
        with pytest.raises(TypeError):
            InferenceEngine(demo_graph(), compiled=True)

    def test_compile_returns_reused_plan(self):
        engine = InferenceEngine(demo_graph(), backend="mixgemm")
        plan = engine.plan
        x = demo_input()
        got = engine.run(x)
        assert engine.plan is plan
        engine.run(x)
        assert engine.plan is plan
        baseline = compile_graph(demo_graph(), backend="mixgemm").run(x)
        assert np.array_equal(got.output, baseline.output)

    def test_plan_shares_engine_pack_cache(self):
        engine = InferenceEngine(demo_graph(), backend="mixgemm",
                                 gemm_backend="event")
        engine.run(demo_input())
        # Prepacked weights + per-call activation packs all land in the
        # engine's own cache.
        assert engine.pack_stats.packs > 0


class TestGuardedPlans:
    """Guards and fault injection run on the fused plan, whose
    quantized steps carry guarded GEMMs chosen at compile time."""

    @pytest.mark.parametrize("level", ["light", "standard", "full"])
    def test_guards_compile_fused_guarded_plan(self, level):
        graph = demo_graph()
        engine = InferenceEngine(graph, backend="mixgemm",
                                 guard_level=level)
        plan = engine.plan
        assert plan.info.fuse
        assert plan.info.guard_level == level
        # conv+relu, conv+relu, flatten, linear: the unguarded structure.
        unguarded = compile_graph(graph, backend="mixgemm")
        assert [s.label for s in plan.steps] == [
            s.label for s in unguarded.steps]
        assert len(plan.steps) == 4 and plan.info.fused_activations == 2
        assert all(s.tap is plan._tap for s in plan.steps)
        guarded = [g for _, gemms in _quant_steps(plan) for g in gemms
                   if isinstance(g, _GuardedGemm)]
        # Light guards only fence node outputs: the GEMMs stay bound.
        assert bool(guarded) == (level != "light")
        assert verify_plan(plan) == []
        assert engine.run(demo_input()).guard_level == level

    def test_unguarded_plan_binds_no_guarded_gemm(self, resnet_graph):
        plan = InferenceEngine(resnet_graph, backend="mixgemm").plan
        assert plan.info.fuse and plan.info.guard_level == "off"
        assert not any(isinstance(g, _GuardedGemm)
                       for _, gemms in _quant_steps(plan) for g in gemms)

    def test_unguarded_plan_keeps_no_input_fence(self):
        x = demo_input().copy()
        x[0, 0, 1, 2] = np.inf
        engine = InferenceEngine(demo_graph(), backend="numpy")
        assert not engine.plan._fence_input
        assert np.isfinite(engine.run(x).output).all()

    def test_fault_plan_recompiles_every_run(self):
        graph = demo_graph()
        x = demo_input()
        plan = FaultPlan.generate(seed=3, n_faults=1, sites=("weight",))
        engine = InferenceEngine(graph, backend="mixgemm",
                                 fault_plan=plan)
        try:
            engine.run(x)
            first = engine.plan
            assert engine.injector.injected
            engine.run(x)
            assert engine.plan is not first
        finally:
            engine.injector.restore()

    def test_guarded_plan_detection_is_deterministic(self):
        graph = demo_graph()
        x = demo_input()

        def run():
            return InferenceEngine(
                graph, backend="mixgemm", guard_level="full",
                fault_plan=FaultPlan.generate(seed=5, n_faults=1,
                                              sites=("accmem",))).run(x)

        first, second = run(), run()
        assert first.fault_events
        assert first.fault_events == second.fault_events
        assert np.array_equal(first.output, second.output)


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
        b = GraphBuilder("raw")
        attrs = {"kernel": 2, "stride": 2} if op == "max_pool2d" else {}
        b.add(NodeSpec(op=op, attrs=attrs, id="head"), inputs=["input"])
        b.add(NodeSpec(op="relu", id="tail"), inputs=["head"])

        # The raw input is fenced once, ahead of every step, so the
        # finite op that reads it needs no scan of its own.
        engine = InferenceEngine(b.build(), backend="mixgemm",
                                 guard_level="light")
        assert engine.plan._tap.unfenced == frozenset({"head", "tail"})
        x = np.ones((1, 2, 4, 4))
        x[0, 1, 2, 3] = np.nan
        with pytest.raises(GuardError, match="after node 'input'"):
            engine.run(x)


class TestLiveness:
    """``run`` drops each value after its last consumer has run."""

    def test_drops_every_value_but_input_and_output_once(self, resnet_graph):
        plan = compile_graph(resnet_graph, backend="mixgemm")
        dropped = [name for names in plan._drops for name in names]
        assert sorted(dropped) == sorted(s.label for s in plan.steps[:-1])

    def test_first_result_survives_a_second_run(self, resnet_graph,
                                                 resnet_input):
        plan = compile_graph(resnet_graph, backend="mixgemm")
        first = plan.run(resnet_input)
        kept = first.output.copy()
        second = plan.run(resnet_input[::-1].copy())
        assert not np.array_equal(second.output, kept)
        assert np.array_equal(first.output, kept)

    def test_intermediates_released_before_run_returns(self, resnet_graph,
                                                       resnet_input):
        plan = compile_graph(resnet_graph, backend="mixgemm")
        last = plan.steps[-1]
        refs: dict[str, weakref.ref] = {}
        alive_at_last: list[str] = []

        class _Recorder:
            def __init__(self, step):
                self.step = step

            def __getattr__(self, attr):
                return getattr(self.step, attr)

            def __call__(self, arrays, result):
                if self.step is last:
                    alive_at_last.extend(
                        label for label, ref in refs.items()
                        if ref() is not None)
                out = self.step(arrays, result)
                refs[self.step.label] = weakref.ref(out)
                return out

        plan.steps[:] = [_Recorder(s) for s in plan.steps]
        plan.run(resnet_input)
        assert len(refs) == len(plan.steps)
        # Only the last step's own input is still held when it runs.
        assert alive_at_last == list(last.input_ids)


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

    @pytest.mark.parametrize("guard_level", ["off", "standard"])
    @pytest.mark.parametrize("name", ["mobilenet_v1", "efficientnet_b0"])
    def test_warm_runs_pack_no_weight_panel(self, name, guard_level,
                                            monkeypatch):
        """Activation packs evict activations first: efficientnet_b0's
        49 weight panels stay warm in the 64-entry cache although each
        run also packs 49 activations."""
        seed_init(5)
        model = build_tiny(name, act_bits=8, weight_bits=8)
        engine = InferenceEngine(export_model(model.eval(), name=name),
                                 backend="mixgemm", gemm_backend="event",
                                 guard_level=guard_level)
        x = np.random.default_rng(9).standard_normal((2, 1, 8, 8))
        engine.run(x)
        # From here on, packing a weight panel fails the run.
        monkeypatch.setattr(packcache, "pack_matrix_b", None)
        engine.run(x)
        engine.run(x)


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

    @pytest.mark.parametrize("op", sorted(SUPPORTED_OPS))
    def test_every_supported_op_has_a_step_builder(self, op):
        """``graph.SUPPORTED_OPS`` and the step builders stay in sync:
        an attr-less node may fail on a missing attribute, never as an
        unsupported op."""
        from repro.runtime.graph import GraphBuilder, NodeSpec

        b = GraphBuilder("one-op")
        b.add(NodeSpec(op="identity", id="a"), inputs=["input"])
        b.add(NodeSpec(op=op), inputs=["input", "a"][
            :2 if op in ("add", "channel_scale") else 1])
        try:
            compile_graph(b.build())
        except KeyError:
            pass
        except GraphError as exc:
            assert "unsupported" not in str(exc)

    @pytest.mark.parametrize("op,n_inputs", [
        ("add", 1), ("add", 3), ("channel_scale", 1),
        ("relu", 2), ("quant_conv2d", 2), ("quant_linear", 2),
    ])
    def test_wrong_arity_rejected_at_compile_time(self, op, n_inputs):
        from repro.runtime.graph import GraphBuilder, NodeSpec

        donor = {n.op: n for n in demo_graph()}.get(op)
        b = GraphBuilder("arity")
        b.add(NodeSpec(op="identity", id="a"), inputs=["input"])
        b.add(NodeSpec(op="identity", id="b"), inputs=["a"])
        node = NodeSpec(op=op, attrs=dict(donor.attrs) if donor else {},
                        tensors=dict(donor.tensors) if donor else {})
        b.add(node, inputs=["input", "a", "b"][:n_inputs])
        with pytest.raises(GraphError, match=f"{op}.*got {n_inputs}"):
            compile_graph(b.build(), backend="mixgemm")

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
