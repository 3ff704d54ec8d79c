"""Cost report: engine-timed tiles, phase split, differential accuracy.

The guarantee under test: for any ``(MixGemmConfig, shape)``
:func:`predict_gemm` reports the event engine's cycle count and every
PMU counter exactly -- it reads the fast path's engine-timed tiles --
and its closed-form phase split partitions those cycles.
"""

import numpy as np
import pytest

from repro.analysis.cost import check_cost, predict_gemm, predict_graph_cycles
from repro.core import fastpath
from repro.core.config import BlockingParams, MixGemmConfig
from repro.core.fastpath import kblock_group_counts, tile_timing
from repro.core.gemm import KernelCosts, MixGemm
from repro.core.isa import BS_IP_COST
from repro.core.microengine import PmuCounters, group_cycles


def _cfg(bw_a, bw_b, kc=64, mr=4, nr=4, signed=True):
    return MixGemmConfig(bw_a=bw_a, bw_b=bw_b, signed_a=signed,
                         signed_b=signed,
                         blocking=BlockingParams(mc=16, nc=16, kc=kc,
                                                 mr=mr, nr=nr))


def _operands(config, m, n, k, seed=0):
    rng = np.random.default_rng(seed)

    def draw(bits, signed, shape):
        if signed:
            return rng.integers(-(1 << (bits - 1)), 1 << (bits - 1),
                                size=shape)
        return rng.integers(0, 1 << bits, size=shape)

    return (draw(config.bw_a, config.signed_a, (m, k)),
            draw(config.bw_b, config.signed_b, (k, n)))


def _event(config, m, n, k):
    a, b = _operands(config, m, n, k)
    return MixGemm(config, emulate_datapath=False,
                   backend="event").gemm(a, b)


def _as_pmu(bd):
    return PmuCounters(
        cycles_total=bd.cycles,
        engine_busy_cycles=bd.engine_busy_cycles,
        buffer_full_stall_cycles=bd.buffer_full_stall_cycles,
        get_stall_cycles=bd.get_stall_cycles,
        macs=bd.macs_issued,
        groups=bd.groups,
        ip_instructions=bd.ip_instructions,
        get_instructions=bd.get_instructions,
        set_instructions=bd.set_instructions,
    )


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
    @pytest.mark.parametrize("bw_a,bw_b", [(8, 8), (6, 4), (5, 3)])
    @pytest.mark.parametrize("shape", [(16, 16, 96), (12, 8, 128)])
    def test_prediction_matches_event_engine(self, bw_a, bw_b, shape):
        m, n, k = shape
        config = _cfg(bw_a, bw_b)
        breakdown = predict_gemm(config, None, m, n, k)
        assert breakdown.cycles == _event(config, m, n, k).cycles

    def test_phase_identity_and_instruction_counters(self):
        config = _cfg(6, 4)
        m, n, k = 12, 8, 128
        bd = predict_gemm(config, None, m, n, k)
        assert bd.phase_identity_holds()
        assert _as_pmu(bd) == _event(config, m, n, k).pmu

    def test_kc_block_structure_is_modelled(self):
        """Deep K crossing several kc blocks still predicts exactly."""
        config = _cfg(8, 8, kc=8)
        m, n, k = 8, 8, 520
        assert predict_gemm(config, None, m, n, k).cycles == \
            _event(config, m, n, k).cycles

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

    @pytest.mark.slow
    def test_full_bitwidth_blocking_sweep_is_exact(self):
        """Every 2..8-bit pair x kc grid equals the event engine."""
        mismatches = []
        for bw_a in range(2, 9):
            for bw_b in range(2, 9):
                for kc in (8, 64, 256):
                    config = _cfg(bw_a, bw_b, kc=kc)
                    m, n, k = 12, 8, 96
                    measured = _event(config, m, n, k).cycles
                    predicted = predict_gemm(config, None, m, n, k).cycles
                    if predicted != measured:
                        mismatches.append(
                            (config.name, kc, predicted, measured))
        assert mismatches == []


#: (bw_a, bw_b, mr, nr).  On the first ten the fitted tile law that
#: preceded the engine-timed report split stalls wrongly from g=7 on
#: (cycles stayed right); the 4x4 rows are controls.
REGISTER_TILE_CASES = [
    (5, 8, 2, 4), (2, 3, 2, 4), (2, 7, 2, 4),
    (8, 5, 4, 2), (3, 2, 4, 2), (7, 2, 4, 2),
    (3, 6, 2, 2), (6, 3, 2, 2), (6, 7, 2, 2), (7, 6, 2, 2),
    (5, 8, 4, 4), (8, 5, 4, 4), (2, 3, 4, 4),
]


class TestRegisterTileDifferential:
    @pytest.mark.parametrize("signed", [True, False],
                             ids=["signed", "unsigned"])
    @pytest.mark.parametrize("bw_a,bw_b,mr,nr", REGISTER_TILE_CASES)
    def test_prediction_equals_event_pmu(self, bw_a, bw_b, mr, nr,
                                         signed):
        config = _cfg(bw_a, bw_b, mr=mr, nr=nr, signed=signed)
        ge = config.layout.group_elements
        full = kblock_group_counts(config, 1 << 20)[0]
        # One full kc-block (g >= 16 here) plus a 9-group tail block,
        # on ragged edge tiles in both dimensions.
        m, n, k = 2 * mr + 1, nr + 1, (full + 9) * ge
        assert kblock_group_counts(config, k) == [full, 9] and full >= 7
        bd = predict_gemm(config, None, m, n, k)
        assert _as_pmu(bd) == _event(config, m, n, k).pmu
        assert bd.phase_identity_holds()

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
