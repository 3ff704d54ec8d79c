"""Closed-form cost model: calibration, differential accuracy, API.

The tentpole guarantee under test: for any supported
``(MixGemmConfig, shape)`` the calibrated model predicts the event
engine's cycle count in closed form -- median error < 1%, max < 5%
across the bitwidth sweep (in practice the probed configurations are
bit-exact) -- and the prediction path executes **zero** event-engine
runs once the calibration is warm.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.cost import (
    get_tile_calibration,
    predict_gemm,
    predict_graph_cycles,
)
from repro.analysis.cost import calibrate as calibrate_mod
from repro.analysis.cost.calibrate import (
    HOLDOUT_GROUPS,
    PROBE_GROUPS,
    clear_calibration_memo,
)
from repro.core.config import BlockingParams, MixGemmConfig
from repro.core.fastpath import tile_timing
from repro.core.gemm import KernelCosts, MixGemm


@pytest.fixture(autouse=True)
def _fresh_calibration_memo():
    """Start and end every test with an empty calibration memo."""
    clear_calibration_memo()
    yield
    clear_calibration_memo()


def _cfg(bw_a, bw_b, kc=64):
    return MixGemmConfig(bw_a=bw_a, bw_b=bw_b,
                         blocking=BlockingParams(mc=16, nc=16, kc=kc))


def _operands(config, m, n, k, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.integers(-(1 << (config.bw_a - 1)), 1 << (config.bw_a - 1),
                     size=(m, k))
    b = rng.integers(-(1 << (config.bw_b - 1)), 1 << (config.bw_b - 1),
                     size=(k, n))
    return a, b


class TestCalibration:
    @pytest.mark.parametrize("bw_a,bw_b",
                             [(8, 8), (8, 4), (6, 4), (5, 3), (2, 2)])
    def test_supported_configs_calibrate_exact(self, bw_a, bw_b):
        calibration = get_tile_calibration(_cfg(bw_a, bw_b))
        assert calibration.exact

    def test_timing_matches_engine_beyond_probes_and_holdouts(self):
        config = _cfg(6, 4)
        costs = KernelCosts()
        calibration = get_tile_calibration(config, costs)
        probed = set(PROBE_GROUPS) | set(HOLDOUT_GROUPS)
        for g in sorted(probed | {7, 20, 50}):
            assert calibration.timing(g) == \
                tile_timing(
                    dataclasses.replace(config, backend="event"),
                    costs, g), f"g={g}"


class TestPredictGemm:
    @pytest.mark.parametrize("bw_a,bw_b", [(8, 8), (6, 4), (5, 3)])
    @pytest.mark.parametrize("shape", [(16, 16, 96), (12, 8, 128)])
    def test_prediction_matches_event_engine(self, bw_a, bw_b, shape):
        m, n, k = shape
        config = _cfg(bw_a, bw_b)
        a, b = _operands(config, m, n, k)
        measured = MixGemm(config, emulate_datapath=False,
                           backend="event").gemm(a, b)
        breakdown = predict_gemm(config, None, m, n, k)
        assert breakdown.cycles == measured.cycles

    def test_phase_identity_and_instruction_counters(self):
        config = _cfg(6, 4)
        m, n, k = 12, 8, 128
        a, b = _operands(config, m, n, k)
        pmu = MixGemm(config, emulate_datapath=False,
                      backend="event").gemm(a, b).pmu
        bd = predict_gemm(config, None, m, n, k)
        assert bd.phase_identity_holds()
        assert bd.ip_instructions == pmu.ip_instructions
        assert bd.get_instructions == pmu.get_instructions
        assert bd.set_instructions == pmu.set_instructions
        assert bd.macs_issued == pmu.macs
        assert bd.groups == pmu.groups
        assert bd.engine_busy_cycles == pmu.engine_busy_cycles
        assert bd.buffer_full_stall_cycles == pmu.buffer_full_stall_cycles
        assert bd.get_stall_cycles == pmu.get_stall_cycles

    def test_kc_block_structure_is_modelled(self):
        """Deep K crossing several kc blocks still predicts exactly."""
        config = _cfg(8, 8, kc=8)
        m, n, k = 8, 8, 520
        a, b = _operands(config, m, n, k)
        measured = MixGemm(config, emulate_datapath=False,
                           backend="event").gemm(a, b)
        assert predict_gemm(config, None, m, n, k).cycles == \
            measured.cycles

    def test_prediction_runs_zero_engine_executions_when_warm(
            self, monkeypatch):
        config = _cfg(8, 4)
        get_tile_calibration(config)  # warm: the only engine touch
        monkeypatch.setattr(
            calibrate_mod, "tile_timing",
            lambda *a, **k: pytest.fail(
                "prediction path executed the event engine"))
        bd = predict_gemm(config, None, 32, 16, 256)
        assert bd.cycles > 0

    def test_one_calibration_per_signature_per_process(self,
                                                       monkeypatch):
        calls = []
        real = calibrate_mod.calibrate_tile

        def counting(config, costs=None):
            calls.append(config.name)
            return real(config, costs)

        monkeypatch.setattr(calibrate_mod, "calibrate_tile", counting)
        # kc is outside the tile signature: both share one calibration.
        for kc in (8, 64, 256):
            predict_gemm(_cfg(8, 4, kc=kc), None, 16, 16, 96)
            get_tile_calibration(_cfg(8, 4, kc=kc))
        assert len(calls) == 1
        predict_gemm(_cfg(6, 4), None, 16, 16, 96)
        assert len(calls) == 2
        clear_calibration_memo()
        get_tile_calibration(_cfg(8, 4))
        assert len(calls) == 3

    @pytest.mark.slow
    def test_full_bitwidth_blocking_sweep_within_bounds(self):
        """The tentpole gate: 2..8-bit sweep x kc grid, <1% / <5%."""
        errors = []
        for bw_a in range(2, 9):
            for bw_b in range(2, 9):
                for kc in (8, 64, 256):
                    config = _cfg(bw_a, bw_b, kc=kc)
                    m, n, k = 12, 8, 96
                    a, b = _operands(config, m, n, k)
                    measured = MixGemm(
                        config, emulate_datapath=False,
                        backend="event").gemm(a, b).cycles
                    predicted = predict_gemm(config, None, m, n, k).cycles
                    errors.append(
                        abs(predicted - measured) / max(measured, 1))
        errors.sort()
        assert errors[len(errors) // 2] < 0.01
        assert errors[-1] < 0.05


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
