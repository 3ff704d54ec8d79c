"""Cost report: engine-timed tiles, phase split, graph totals.

The guarantee: for any ``(MixGemmConfig, shape)`` :func:`predict_gemm`
reports the event engine's cycle count and every PMU counter exactly --
it reads the fast path's engine-timed tiles -- and its closed-form
phase split partitions those cycles.  ``tests/core/test_gemm_matrix.py``
checks both on every fast row; the tests here cover the tile law, the
warm memo, the checker and whole-plan totals.
"""

import pytest

from repro.analysis.cost import check_cost, predict_gemm, predict_graph_cycles
from repro.core import fastpath
from repro.core.config import BlockingParams, MixGemmConfig
from repro.core.fastpath import tile_timing
from repro.core.gemm import KernelCosts
from repro.core.isa import BS_IP_COST
from repro.core.microengine import group_cycles


def _cfg(bw_a, bw_b):
    return MixGemmConfig(bw_a=bw_a, bw_b=bw_b,
                         blocking=BlockingParams(mc=16, nc=16, kc=64))


class TestTileLaw:
    """The affine law the phase split rests on, checked on the engine."""

    @pytest.mark.parametrize("bw_a,bw_b",
                             [(8, 8), (8, 4), (6, 4), (5, 3), (2, 2)])
    def test_tile_cycles_affine_in_groups(self, bw_a, bw_b):
        """``cpu(g) = max(issue, execute) * g + K`` from g=1 on."""
        config = _cfg(bw_a, bw_b)
        costs = KernelCosts()
        lay = config.layout
        blk = config.blocking
        cells = blk.mr * blk.nr
        issue = (costs.kgroup_overhead
                 + costs.load_cost * (lay.kua * blk.mr + lay.kub * blk.nr)
                 + cells * (costs.inner_loop_overhead
                            + max(lay.kua, lay.kub) * BS_IP_COST))
        slope = max(issue, cells * group_cycles(config))
        intercept = tile_timing(config, costs, 1).cpu_cycles - slope
        for g in (2, 3, 6, 8, 12, 20, 33):
            assert tile_timing(config, costs, g).cpu_cycles == \
                slope * g + intercept, f"g={g}"


class TestPredictGemm:
    def test_prediction_runs_zero_engine_executions_when_warm(
            self, monkeypatch):
        config = _cfg(8, 4)
        predict_gemm(config, None, 32, 16, 256)  # warms the tile memo
        monkeypatch.setattr(
            fastpath, "_run_tile",
            lambda *a, **k: pytest.fail(
                "prediction path executed the event engine"))
        # A new shape with the same per-block group counts: no new tile.
        bd = predict_gemm(config, None, 24, 12, 256)
        assert bd.cycles > 0


class TestRegisterTileDifferential:
    def test_check_cost_on_narrow_register_tile_is_clean(self):
        from repro.robustness.faults import demo_graph

        report = check_cost(
            demo_graph(act_bits=5, weight_bits=8),
            blocking=BlockingParams(mc=16, nc=16, kc=64, mr=2, nr=4))
        assert report.diagnostics == []


class TestPredictGraphCycles:
    def test_matches_compiled_plan_execution(self):
        from repro.robustness.faults import demo_graph, demo_input
        from repro.runtime.plan import compile_graph

        graph = demo_graph()
        x = demo_input(batch=1, size=6, seed=0)
        plan = compile_graph(graph, backend="mixgemm")
        run = plan.run(x)
        layer_rows = {}
        per_layer = {}
        for s in run.layer_stats:
            per_layer[s.layer] = per_layer.get(s.layer, 0) + s.cycles
        from repro.analysis.cost.graph import iter_plan_gemms
        for label, _op, gemms in iter_plan_gemms(plan):
            g = gemms[0]
            macs = next(s.macs for s in run.layer_stats
                        if s.layer == label)
            layer_rows[label] = macs // (g.n * g.k)
        cost = predict_graph_cycles(plan, layer_rows=layer_rows)
        assert cost.total_cycles == sum(per_layer.values())
        for layer in cost.layers:
            assert layer.cycles == per_layer[layer.label], layer.label

    def test_layers_partition_total(self):
        from repro.robustness.faults import demo_graph
        from repro.runtime.plan import compile_graph

        plan = compile_graph(demo_graph(), backend="mixgemm")
        cost = predict_graph_cycles(plan)
        assert cost.layers
        assert cost.total_cycles == sum(lc.cycles for lc in cost.layers)
        for layer in cost.layers:
            assert layer.breakdown.phase_identity_holds()
