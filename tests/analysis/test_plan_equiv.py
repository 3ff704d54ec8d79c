"""Plan-equivalence verifier: clean plans prove out, seeded bugs don't."""

import json

import numpy as np
import pytest

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.ranges import (
    analyze_graph,
    verify_graph_plans,
    verify_plan,
)
from repro.analysis.sarif import to_sarif
from repro.models.builders import build_tiny
from repro.nn.im2col import (
    K_ORDER_CHANNELS_LAST,
    K_ORDER_IM2ROW,
    channels_last_order,
)
from repro.nn.layers import LayerQuantSpec, QuantConv2d, Sequential, seed_init
from repro.robustness.faults import demo_graph
from repro.runtime.export_modules import export_model
from repro.runtime.graph import export_sequential
from repro.runtime.plan import _BoundGemm, compile_graph


@pytest.fixture(scope="module")
def resnet_graph():
    seed_init(13)
    model = build_tiny("resnet18", act_bits=8, weight_bits=8)
    model.eval()
    return export_model(model, name="resnet18")


@pytest.fixture(scope="module")
def resnet_analysis(resnet_graph):
    return analyze_graph(resnet_graph, input_range=(-4.0, 4.0))


def _corrupt_first_bn_fold(plan):
    """Seeded bug: scale the first fused batchnorm's output by 1.0001."""
    for step in plan.steps:
        if "batchnorm2d" in step.fused:
            idx = step.fused.index("batchnorm2d")
            original = step.epilogue[idx]
            step.epilogue[idx] = \
                lambda y, fn=original: fn(y) * 1.0001
            return step.label
    raise AssertionError("no fused batchnorm in plan")


class TestCleanPlansVerify:
    @pytest.mark.parametrize("fuse", [True, False])
    def test_resnet_plan_preserves_ranges(self, resnet_graph,
                                          resnet_analysis, fuse):
        plan = compile_graph(resnet_graph, backend="mixgemm",
                             gemm_backend="auto", fuse=fuse)
        assert verify_plan(plan, analysis=resnet_analysis) == []

    def test_demo_plans_preserve_ranges(self):
        graph = demo_graph()
        diags = verify_graph_plans(graph, accmem_bits=64,
                                   input_range=(-3.0, 3.0))
        assert diags == []

    @pytest.mark.parametrize("accmem_bits", [64, 16, 12])
    def test_verifies_across_accmem_widths(self, resnet_graph,
                                           accmem_bits):
        """Wrap semantics must line up even when layers do wrap."""
        diags = verify_graph_plans(resnet_graph,
                                   accmem_bits=accmem_bits,
                                   input_range=(-4.0, 4.0))
        assert diags == []

    def test_every_compiled_suite_plan_verifies(self, resnet_graph):
        """All deployment-shape plans in the test suite prove out."""
        for graph in (resnet_graph, demo_graph()):
            for fuse in (True, False):
                plan = compile_graph(graph, backend="mixgemm",
                                     gemm_backend="auto", fuse=fuse)
                assert verify_plan(plan) == []


class TestSeededBugs:
    def test_broken_bn_fold_caught(self, resnet_graph,
                                   resnet_analysis):
        plan = compile_graph(resnet_graph, backend="mixgemm", fuse=True)
        label = _corrupt_first_bn_fold(plan)
        diags = verify_plan(plan, analysis=resnet_analysis)
        assert any(d.rule == "RANGE-EQUIV" and d.node == label
                   for d in diags)

    def test_broken_bn_fold_in_text_json_sarif(self, resnet_graph,
                                               resnet_analysis):
        plan = compile_graph(resnet_graph, backend="mixgemm", fuse=True)
        _corrupt_first_bn_fold(plan)
        report = DiagnosticReport()
        report.extend(verify_plan(plan, analysis=resnet_analysis,
                                  path="resnet18.json"))
        text = report.render_text()
        assert "RANGE-EQUIV" in text
        payload = json.loads(report.to_json())
        diags = payload.get("diagnostics", payload)
        assert "RANGE-EQUIV" in json.dumps(diags)
        sarif = to_sarif(report)
        results = sarif["runs"][0]["results"]
        assert any(r["ruleId"] == "RANGE-EQUIV" for r in results)
        rules = sarif["runs"][0]["tool"]["driver"]["rules"]
        assert any(r["id"] == "RANGE-EQUIV" for r in rules)

    def test_tampered_panel_caught(self, resnet_graph,
                                   resnet_analysis):
        plan = compile_graph(resnet_graph, backend="mixgemm", fuse=True)
        for step in plan.steps:
            gemms = getattr(step, "gemms", None)
            if gemms and gemms[0].mode == "fast":
                blocks = gemms[0].kernel.blocks
                sl, blk, dtype = blocks[0]
                blk = blk.copy()
                blk.flat[0] += 1  # one integer off
                blocks[0] = (sl, blk, dtype)
                break
        else:
            pytest.skip("no fast-mode conv step")
        diags = verify_plan(plan, analysis=resnet_analysis)
        assert any("panel" in d.message for d in diags)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fractional_panel_tamper_caught(self, resnet_graph,
                                            resnet_analysis, dtype):
        """A non-integral float panel entry (75.0 -> 75.5) changes what
        the plan computes, so the verifier must not truncate it away."""
        plan = compile_graph(resnet_graph, backend="mixgemm", fuse=True)
        x = np.random.default_rng(7).standard_normal((2, 1, 12, 12))
        clean = plan.run(x).output
        blocks = next(step.gemms[0].kernel.blocks for step in plan.steps
                      if getattr(step, "gemms", None)
                      and step.gemms[0].mode == "fast")
        sl, blk, _ = blocks[0]
        assert blk.dtype == np.float32  # a8w8 rides the sgemm panels
        blk = blk.astype(dtype)
        blk.flat[0] += 0.5
        blocks[0] = (sl, blk, dtype)
        assert not np.array_equal(plan.run(x).output, clean)
        diags = verify_plan(plan, analysis=resnet_analysis)
        assert any("panel" in d.message for d in diags)

    def test_wrong_accmem_width_caught(self, resnet_graph,
                                       resnet_analysis):
        plan = compile_graph(resnet_graph, backend="mixgemm",
                             accmem_bits=32)
        diags = verify_plan(plan, analysis=resnet_analysis)
        assert diags and "accmem_bits" in diags[0].message

    def test_permuted_panel_in_wrapping_multiblock_gemm_caught(self):
        """Channels-last K order where a 16-bit AccMem wraps over two
        kc-blocks: the panel itself matches the permuted source, but the
        wrap points move, so the plan is rejected."""
        seed_init(21)
        spec = LayerQuantSpec(act_bits=8, weight_bits=8)
        model = Sequential(QuantConv2d(64, 4, 3, spec=spec, padding=1))
        model.eval()
        graph = export_sequential(model, name="wide-k-conv")
        analysis = analyze_graph(graph, accmem_bits=16)
        plan = compile_graph(graph, backend="mixgemm", accmem_bits=16)
        step = plan.steps[0]
        assert step.k_order == K_ORDER_IM2ROW
        assert verify_plan(plan, analysis=analysis) == []
        rec = analysis.records[step.stats_label]
        assert len(rec.blocks[0]) == 2
        # Hand-build the order the compiler refuses here.
        gemm = step.gemms[0]
        perm = channels_last_order(step.cpg, step.kh, step.kw)
        step.gemms = [_BoundGemm(rec.weights_q[0][perm], gemm.config,
                                 "fast", plan.pack_cache, gemm.label,
                                 gemm.op)]
        step.k_order = K_ORDER_CHANNELS_LAST
        diags = verify_plan(plan, analysis=analysis)
        assert [d.rule for d in diags] == ["RANGE-EQUIV"]
        assert "wrap points would move" in diags[0].message
        # Undeclared, the same panel diverges from the source order.
        step.k_order = K_ORDER_IM2ROW
        diags = verify_plan(plan, analysis=analysis)
        assert any("panel diverges" in d.message for d in diags)

    def test_tampered_wide_bn_shift_caught(self, resnet_graph,
                                           resnet_analysis):
        """The per-call epilogue reads the lowering's tiled BN copy, not
        the step's narrow one, so the verifier checks the copy too."""
        plan = compile_graph(resnet_graph, backend="mixgemm", fuse=True)
        plan.run(np.random.default_rng(7).standard_normal((2, 1, 12, 12)))
        assert verify_plan(plan, analysis=resnet_analysis) == []
        step = next(s for s in plan.steps if "batchnorm2d" in s.fused)
        low = next(iter(step._lowerings.values()))
        low.epilogue[step.fused.index("batchnorm2d")].shift[-1] += 1e-3
        diags = verify_plan(plan, analysis=resnet_analysis)
        assert [(d.rule, d.node) for d in diags] == \
            [("RANGE-EQUIV", step.label)]
        assert "tiled epilogue 0 BN shift" in diags[0].message

    def test_kernel_row_rule_checked_before_any_run(self, resnet_graph,
                                                    resnet_analysis):
        """The rule is the step's: a plan that has not run yet (no
        cached lowering) is checked too, with one finding per step."""
        plan = compile_graph(resnet_graph, backend="mixgemm", fuse=True)
        step = next(s for s in plan.steps
                    if getattr(s, "kernel_rows", False))
        step.stride = 2
        diags = verify_plan(plan, analysis=resnet_analysis)
        assert [(d.rule, d.node) for d in diags] == \
            [("RANGE-EQUIV", step.label)]
        assert "under stride 2" in diags[0].message

    def test_tap_lowering_on_wrapping_gemm_caught(self, resnet_graph):
        """At a 16-bit AccMem every kernel wraps, so the compiler keeps
        rows(); a kernel-row lowering forced onto one is reported."""
        analysis = analyze_graph(resnet_graph, accmem_bits=16,
                                 input_range=(-4.0, 4.0))
        plan = compile_graph(resnet_graph, backend="mixgemm",
                             accmem_bits=16)
        plan.run(np.random.default_rng(7).standard_normal((2, 1, 12, 12)))
        assert not any(getattr(s, "kernel_rows", False) for s in plan.steps)
        assert verify_plan(plan, analysis=analysis) == []
        step = next(s for s in plan.steps
                    if getattr(s, "stride", 0) == 1 and s.quant)
        low = next(iter(step._lowerings.values()))
        low.kernel_rows = True
        diags = verify_plan(plan, analysis=analysis)
        assert [(d.rule, d.node) for d in diags] == \
            [("RANGE-EQUIV", step.label)]
        assert "16-bit AccMem wrap" in diags[0].message

    def test_direct_lowering_on_3x3_conv_caught(self, resnet_graph,
                                                resnet_analysis):
        """Only a 1x1, unpadded, single-group conv reads its buffer as
        the im2row matrix; a padded 3x3 step declared direct, or one
        whose cached lowering is, is reported."""
        plan = compile_graph(resnet_graph, backend="mixgemm", fuse=True)
        plan.run(np.random.default_rng(7).standard_normal((2, 1, 12, 12)))
        assert verify_plan(plan, analysis=resnet_analysis) == []
        direct = [s for s in plan.steps if getattr(s, "direct", False)]
        assert direct and all(s.kh == 1 for s in direct)
        step = next(s for s in plan.steps if getattr(s, "kh", 1) == 3)
        low = next(iter(step._lowerings.values()))
        for tamper in (step, low):
            tamper.direct = True
            diags = verify_plan(plan, analysis=resnet_analysis)
            assert [(d.rule, d.node) for d in diags] == \
                [("RANGE-EQUIV", step.label)]
            assert "direct lowering under a 3x3 kernel, padding 1" in \
                diags[0].message
            tamper.direct = False

    def test_direct_lowering_on_grouped_conv_caught(self):
        seed_init(5)
        model = build_tiny("mobilenet_v1", act_bits=8, weight_bits=8)
        model.eval()
        graph = export_model(model, name="mobilenet_v1")
        plan = compile_graph(graph, backend="mixgemm")
        step = next(s for s in plan.steps if getattr(s, "groups", 1) > 1)
        step.direct = True
        diags = verify_plan(plan)
        assert any(d.node == step.label
                   and f"{step.groups} groups" in d.message for d in diags)

    def test_unknown_k_order_caught(self, resnet_graph, resnet_analysis):
        plan = compile_graph(resnet_graph, backend="mixgemm", fuse=True)
        step = next(s for s in plan.steps
                    if getattr(s, "k_order", None) == K_ORDER_CHANNELS_LAST)
        step.k_order = "w,h,c"
        diags = verify_plan(plan, analysis=resnet_analysis)
        assert any("unknown K order" in d.message for d in diags)

    def test_dropped_bn_epilogue_caught(self, resnet_graph,
                                        resnet_analysis):
        plan = compile_graph(resnet_graph, backend="mixgemm", fuse=True)
        for step in plan.steps:
            if "batchnorm2d" in step.fused:
                step.epilogue.pop(step.fused.index("batchnorm2d"))
                break
        diags = verify_plan(plan, analysis=resnet_analysis)
        assert any(d.rule == "RANGE-EQUIV" for d in diags)
