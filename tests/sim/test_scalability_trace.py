"""Scalability models + trace-driven cache validation."""

import pytest

from repro.core.config import BlockingParams, MixGemmConfig
from repro.sim.cache import CacheHierarchy
from repro.sim.memory import gemm_traffic
from repro.sim.params import DEFAULT_MEMORY_COSTS, PAPER_SOC
from repro.sim.scalability import (
    MultiCorePerfModel,
    WideSimdPerfModel,
    wide_simd_area,
)
from repro.sim.trace import trace_gemm


class TestMultiCore:
    def test_speedup_grows_with_cores(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=8)
        speedups = [
            MultiCorePerfModel(c).gemm(512, 512, 512, cfg).speedup
            for c in (1, 2, 4, 8)
        ]
        assert speedups == sorted(speedups)
        assert speedups[0] == pytest.approx(1.0, rel=0.01)

    def test_efficiency_near_one_for_few_cores(self):
        # Paper: per-core performance close to single-threaded.
        cfg = MixGemmConfig(bw_a=8, bw_b=8)
        r = MultiCorePerfModel(4).gemm(1024, 1024, 1024, cfg)
        assert r.efficiency > 0.75

    def test_contention_limits_scaling(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=8)
        r16 = MultiCorePerfModel(16).gemm(1024, 1024, 1024, cfg)
        assert r16.efficiency < 1.0

    def test_gops_reaches_multicore_scale(self):
        # 8 cores at ~5 GOPS each: comparable to XpulpNN's 8-core range.
        cfg = MixGemmConfig(bw_a=2, bw_b=2)
        r = MultiCorePerfModel(8).gemm(1024, 1024, 1024, cfg)
        assert r.gops() > 50.0

    def test_invalid_cores(self):
        with pytest.raises(ValueError):
            MultiCorePerfModel(0)


class TestWideSimd:
    def test_two_lanes_nearly_double(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=8)
        one = WideSimdPerfModel(1).gemm(1024, 1024, 1024, cfg)
        two = WideSimdPerfModel(2).gemm(1024, 1024, 1024, cfg)
        assert 1.5 < one.total_cycles / two.total_cycles <= 2.0

    def test_area_scales_sublinearly_overall(self):
        # Control Unit is shared, so 2 lanes cost < 2x area.
        design = wide_simd_area(2)
        assert 1.8 < design.area_overhead_vs_baseline < 2.0

    def test_identity_lane(self):
        cfg = MixGemmConfig(bw_a=4, bw_b=4)
        base = WideSimdPerfModel(1).gemm(256, 256, 256, cfg)
        from repro.sim.perf import MixGemmPerfModel
        ref = MixGemmPerfModel().gemm(256, 256, 256, cfg)
        assert base.total_cycles == ref.total_cycles

    def test_invalid_lanes(self):
        with pytest.raises(ValueError):
            WideSimdPerfModel(0)
        with pytest.raises(ValueError):
            wide_simd_area(0)


class TestTraceValidation:
    """The analytic traffic model vs the set-associative simulator."""

    @pytest.fixture(scope="class")
    def small_cfg(self):
        return MixGemmConfig(
            bw_a=8, bw_b=8, blocking=BlockingParams(mc=32, nc=32, kc=16),
        )

    def _analytic(self, m, n, k, cfg, soc=PAPER_SOC):
        kc_eff = cfg.kc_elements
        return gemm_traffic(
            m, n, k,
            a_bytes_per_element=cfg.bw_a / 8,
            b_bytes_per_element=cfg.bw_b / 8,
            acc_bytes=4,
            mc=cfg.blocking.mc, nc=cfg.blocking.nc, kc=kc_eff,
            mr=cfg.blocking.mr, nr=cfg.blocking.nr,
            soc=soc, costs=DEFAULT_MEMORY_COSTS,
            out_bytes_per_element=1.0,
        )

    def test_magnitudes_agree(self, small_cfg):
        m = n = k = 128
        hierarchy = CacheHierarchy(l1_size=4 * 1024, l2_size=32 * 1024)
        trace = trace_gemm(m, n, k, small_cfg, hierarchy)
        soc = PAPER_SOC.with_caches(4 * 1024, 32 * 1024)
        analytic = self._analytic(m, n, k, small_cfg, soc)
        # Order-of-magnitude agreement between the two models.
        assert trace.l2_bytes == pytest.approx(analytic.l2_bytes,
                                               rel=1.5)
        assert trace.dram_bytes <= 4 * max(analytic.dram_bytes, 1)

    def test_narrow_data_less_traffic(self):
        blocking = BlockingParams(mc=32, nc=32, kc=16)
        wide = trace_gemm(64, 64, 64,
                          MixGemmConfig(bw_a=8, bw_b=8, blocking=blocking),
                          CacheHierarchy(l1_size=2048, l2_size=16 * 1024))
        narrow = trace_gemm(64, 64, 64,
                            MixGemmConfig(bw_a=2, bw_b=2,
                                          blocking=blocking),
                            CacheHierarchy(l1_size=2048,
                                           l2_size=16 * 1024))
        assert narrow.loads < wide.loads
        assert narrow.l2_bytes <= wide.l2_bytes

    def test_smaller_caches_more_misses(self, small_cfg):
        big = trace_gemm(96, 96, 96, small_cfg,
                         CacheHierarchy(l1_size=32 * 1024,
                                        l2_size=256 * 1024))
        small = trace_gemm(96, 96, 96, small_cfg,
                           CacheHierarchy(l1_size=2 * 1024,
                                          l2_size=16 * 1024))
        assert small.l1_miss_lines >= big.l1_miss_lines
        assert small.l2_miss_lines >= big.l2_miss_lines

    def test_load_count_matches_formula(self, small_cfg):
        from repro.core.gemm import uvector_loads
        m, n, k = 32, 32, 64
        trace = trace_gemm(m, n, k, small_cfg, CacheHierarchy())
        expected_uvec = uvector_loads(m, n, k, small_cfg)
        c_updates = m * n  # one k-block at this size
        assert trace.loads == expected_uvec + c_updates
