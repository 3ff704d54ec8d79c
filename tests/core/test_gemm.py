"""Unit + integration tests for the Mix-GEMM library (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.binseg import BinSegError
from repro.core.config import BlockingParams, MixGemmConfig
from repro.core.gemm import (
    KernelCosts,
    MixGemm,
    mix_gemm,
    reference_gemm,
    uvector_loads,
)


def _random_operands(rng, m, k, n, bw_a, bw_b):
    a = rng.integers(-(1 << (bw_a - 1)), 1 << (bw_a - 1), size=(m, k))
    b = rng.integers(-(1 << (bw_b - 1)), 1 << (bw_b - 1), size=(k, n))
    return a, b


SMALL_BLOCKING = BlockingParams(mc=8, nc=8, kc=64, mr=4, nr=4)


class TestFunctionalCorrectness:
    def test_c_accumulation_in_place(self):
        rng = np.random.default_rng(4)
        a, b = _random_operands(rng, 4, 8, 4, 4, 4)
        c = np.ones((4, 4), dtype=np.int64)
        result = mix_gemm_with_c(a, b, c)
        assert np.array_equal(result.c, reference_gemm(a, b) + 1)
        assert result.c is c

    def test_shape_validation(self):
        with pytest.raises(BinSegError):
            mix_gemm(np.zeros((2, 3), dtype=int),
                     np.zeros((4, 2), dtype=int), bw_a=8, bw_b=8)
        with pytest.raises(BinSegError):
            mix_gemm(np.zeros(3, dtype=int),
                     np.zeros((3, 2), dtype=int), bw_a=8, bw_b=8)

    def test_wrong_c_shape(self):
        cfg = MixGemmConfig()
        with pytest.raises(BinSegError):
            MixGemm(cfg).gemm(
                np.zeros((2, 8), dtype=int),
                np.zeros((8, 2), dtype=int),
                c=np.zeros((3, 3), dtype=np.int64),
            )


def mix_gemm_with_c(a, b, c):
    cfg = MixGemmConfig(bw_a=4, bw_b=4, blocking=SMALL_BLOCKING)
    return MixGemm(cfg).gemm(a, b, c=c)


class TestInstructionAccounting:
    def test_instruction_counts_match_algorithm1(self):
        # One u-kernel tile, one k-group: nr*mr*max(kua,kub) bs.ip and
        # mr*nr bs.get.
        cfg = MixGemmConfig(bw_a=8, bw_b=8, blocking=SMALL_BLOCKING)
        a = np.zeros((4, 32), dtype=np.int64)
        b = np.zeros((32, 4), dtype=np.int64)
        result = MixGemm(cfg).gemm(a, b)
        assert result.instructions["bs.set"] == 1
        assert result.instructions["bs.ip"] == 16 * 4
        assert result.instructions["bs.get"] == 16

    def test_ip_count_scales_with_kgroups(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=8, blocking=SMALL_BLOCKING)
        a = np.zeros((4, 64), dtype=np.int64)
        b = np.zeros((64, 4), dtype=np.int64)
        result = MixGemm(cfg).gemm(a, b)
        assert result.instructions["bs.ip"] == 2 * 16 * 4

    def test_macs_counted(self):
        cfg = MixGemmConfig(bw_a=4, bw_b=4, blocking=SMALL_BLOCKING)
        a = np.zeros((5, 17), dtype=np.int64)
        b = np.zeros((17, 3), dtype=np.int64)
        result = MixGemm(cfg).gemm(a, b)
        assert result.macs == 5 * 3 * 17


class TestPerformanceShape:
    def test_narrow_data_is_faster(self):
        # The headline property: performance scales with decreasing size.
        rng = np.random.default_rng(7)
        m = n = 16
        k = 2 * 480  # multiple of every group size
        cycles = {}
        for bw in (8, 4, 2):
            a = rng.integers(-2, 2, size=(m, k))
            b = rng.integers(-2, 2, size=(k, n))
            cfg = MixGemmConfig(bw_a=bw, bw_b=bw,
                                blocking=BlockingParams(mc=16, nc=16, kc=960))
            result = MixGemm(cfg, emulate_datapath=False).gemm(a, b)
            cycles[bw] = result.cycles
        assert cycles[8] > cycles[4] > cycles[2]

    def test_steady_state_macs_per_cycle_a8w8(self):
        # Engine-bound steady state approaches 32/12 = 2.67 MAC/cycle.
        rng = np.random.default_rng(8)
        k = 32 * 16
        a = rng.integers(-8, 8, size=(16, k))
        b = rng.integers(-8, 8, size=(k, 16))
        cfg = MixGemmConfig(bw_a=8, bw_b=8,
                            blocking=BlockingParams(mc=16, nc=16, kc=512))
        result = MixGemm(cfg, emulate_datapath=False).gemm(a, b)
        assert result.macs_per_cycle == pytest.approx(32 / 12, rel=0.15)

    def test_gops_conversion(self):
        cfg = MixGemmConfig(blocking=SMALL_BLOCKING)
        a = np.zeros((4, 32), dtype=np.int64)
        b = np.zeros((32, 4), dtype=np.int64)
        result = MixGemm(cfg).gemm(a, b)
        assert result.gops(1.2) == pytest.approx(
            2 * result.macs_per_cycle * 1.2
        )


class TestKernelCosts:
    def test_costs_affect_cycle_count_when_cpu_bound(self):
        rng = np.random.default_rng(9)
        a, b = _random_operands(rng, 8, 64, 8, 8, 8)
        cheap = MixGemm(
            MixGemmConfig(blocking=SMALL_BLOCKING),
            emulate_datapath=False,
            costs=KernelCosts(load_cost=1, inner_loop_overhead=0),
        ).gemm(a, b)
        dear = MixGemm(
            MixGemmConfig(blocking=SMALL_BLOCKING),
            emulate_datapath=False,
            costs=KernelCosts(load_cost=4, inner_loop_overhead=8),
        ).gemm(a, b)
        assert dear.cycles > cheap.cycles

    def test_uvector_loads_formula(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=8)
        # 4x4 tile grid over 16x16, 2 k-groups of 32.
        loads = uvector_loads(16, 16, 64, cfg)
        assert loads == 4 * 4 * 2 * (4 * 4 + 4 * 4)
