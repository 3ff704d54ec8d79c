"""COST-* diagnostics: blocking inefficiency, slice imbalance."""

import numpy as np

from repro.analysis.cost import check_cost, check_cost_file
from repro.core.config import BlockingParams
from repro.runtime.graph import GraphModel, NodeSpec


def _linear_graph(n_out=16, k=256, bits=8):
    rng = np.random.default_rng(0)
    node = NodeSpec(op="quant_linear", attrs={
        "act_bits": bits, "weight_bits": bits,
        "act_signed": True, "act_scale": 0.05})
    node.tensors["weight"] = rng.standard_normal((n_out, k)) * 0.05
    return GraphModel(nodes=[node], name="one-linear")


class TestCleanGraph:
    def test_default_deployment_is_clean(self):
        report = check_cost(_linear_graph())
        assert not report.diagnostics

    def test_non_quant_nodes_are_skipped(self):
        graph = GraphModel(nodes=[NodeSpec(op="relu", attrs={})])
        assert not check_cost(graph).diagnostics


class TestBlockingInefficient:
    def test_tiny_kc_on_deep_layer_fires(self):
        # kc=1 forces a kc-block (and its C-update epilogue) per
        # handful of K elements: far off the analytic optimum.
        report = check_cost(
            _linear_graph(k=2048),
            blocking=BlockingParams(mc=16, nc=16, kc=1))
        rules = [d.rule for d in report.diagnostics]
        assert "COST-BLOCKING-INEFFICIENT" in rules
        (diag,) = [d for d in report.diagnostics
                   if d.rule == "COST-BLOCKING-INEFFICIENT"]
        assert "tune toward" in diag.hint

    def test_reasonable_blocking_does_not_fire(self):
        report = check_cost(
            _linear_graph(k=2048),
            blocking=BlockingParams(mc=16, nc=16, kc=256))
        assert "COST-BLOCKING-INEFFICIENT" not in \
            [d.rule for d in report.diagnostics]


class TestImbalance:
    def test_idle_workers_fire(self):
        # N=4 with nr=4: one slice, three idle workers.
        report = check_cost(_linear_graph(n_out=4), workers=4)
        diags = [d for d in report.diagnostics
                 if d.rule == "COST-IMBALANCE"]
        assert diags and "no columns" in diags[0].message

    def test_ragged_tail_slice_fires(self):
        # N=36, nr=4, 4 workers -> nr-aligned chunk 12: slices of
        # 12/12/12 would balance, but N=20 gives 12+8: 33% skew.
        report = check_cost(_linear_graph(n_out=20), workers=2)
        diags = [d for d in report.diagnostics
                 if d.rule == "COST-IMBALANCE"]
        assert diags and "lighter than the slowest" in diags[0].message

    def test_balanced_partition_is_silent(self):
        report = check_cost(_linear_graph(n_out=32), workers=2)
        assert "COST-IMBALANCE" not in \
            [d.rule for d in report.diagnostics]

    def test_single_worker_never_fires(self):
        report = check_cost(_linear_graph(n_out=4), workers=1)
        assert "COST-IMBALANCE" not in \
            [d.rule for d in report.diagnostics]


class TestFileEntry:
    def test_missing_file_is_grf_parse(self, tmp_path):
        report = check_cost_file(str(tmp_path / "nope.json"))
        (diag,) = report.diagnostics
        assert diag.rule == "GRF-PARSE"

    def test_good_file_round_trips(self, tmp_path):
        path = tmp_path / "m.json"
        _linear_graph(n_out=4).save(str(path))
        report = check_cost_file(str(path), workers=4)
        assert any(d.rule == "COST-IMBALANCE" for d in report.diagnostics)
        assert all(d.path == str(path) for d in report.diagnostics)
