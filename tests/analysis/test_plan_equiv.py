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
from repro.nn.layers import seed_init
from repro.robustness.faults import demo_graph
from repro.runtime.export_modules import export_model
from repro.runtime.plan import compile_graph


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

    def test_dropped_bn_epilogue_caught(self, resnet_graph,
                                        resnet_analysis):
        plan = compile_graph(resnet_graph, backend="mixgemm", fuse=True)
        for step in plan.steps:
            if "batchnorm2d" in step.fused:
                step.epilogue.pop(step.fused.index("batchnorm2d"))
                break
        diags = verify_plan(plan, analysis=resnet_analysis)
        assert any(d.rule == "RANGE-EQUIV" for d in diags)
