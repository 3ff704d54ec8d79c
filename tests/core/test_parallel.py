"""Multi-core Mix-GEMM tests (Section III-B scalability claim)."""

import numpy as np
import pytest

from repro.core.config import BlockingParams, MixGemmConfig
from repro.core.gemm import MixGemm
from repro.core.parallel import ParallelMixGemm, combined_pmu

SMALL = BlockingParams(mc=8, nc=8, kc=64)


def _operands(m=8, k=96, n=16, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(-8, 8, size=(m, k)),
            rng.integers(-8, 8, size=(k, n)))


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("cores", [1, 2, 3, 4])
    def test_matches_single_core(self, cores):
        a, b = _operands()
        cfg = MixGemmConfig(bw_a=4, bw_b=4, blocking=SMALL)
        single = MixGemm(cfg, emulate_datapath=False).gemm(a, b)
        parallel = ParallelMixGemm(cfg, cores=cores).gemm(a, b)
        assert np.array_equal(parallel.c, single.c)

    def test_uneven_split(self):
        a, b = _operands(n=13)
        cfg = MixGemmConfig(bw_a=8, bw_b=8, blocking=SMALL)
        parallel = ParallelMixGemm(cfg, cores=4).gemm(a, b)
        assert np.array_equal(
            parallel.c, a.astype(np.int64) @ b
        )

    def test_more_cores_than_tiles(self):
        a, b = _operands(n=4)
        cfg = MixGemmConfig(bw_a=8, bw_b=8, blocking=SMALL)
        parallel = ParallelMixGemm(cfg, cores=8).gemm(a, b)
        assert np.array_equal(parallel.c, a.astype(np.int64) @ b)
        assert parallel.cores <= 8

    def test_shape_validation(self):
        cfg = MixGemmConfig(blocking=SMALL)
        with pytest.raises(Exception):
            ParallelMixGemm(cfg, cores=2).gemm(
                np.zeros((2, 3), dtype=int), np.zeros((4, 2), dtype=int)
            )

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            ParallelMixGemm(MixGemmConfig(), cores=0)


class TestTiming:
    def test_parallel_is_faster(self):
        a, b = _operands(m=8, k=192, n=32)
        cfg = MixGemmConfig(bw_a=8, bw_b=8, blocking=SMALL)
        one = ParallelMixGemm(cfg, cores=1, barrier_cycles=0).gemm(a, b)
        four = ParallelMixGemm(cfg, cores=4, barrier_cycles=0).gemm(a, b)
        assert four.cycles < one.cycles

    def test_near_linear_efficiency(self):
        # Paper: "retaining performance-per-core close to the
        # single-threaded implementation".
        a, b = _operands(m=8, k=192, n=64)
        cfg = MixGemmConfig(bw_a=8, bw_b=8, blocking=SMALL)
        result = ParallelMixGemm(cfg, cores=4, barrier_cycles=0).gemm(a, b)
        assert result.parallel_efficiency > 0.8

    def test_barrier_cost_included(self):
        a, b = _operands()
        cfg = MixGemmConfig(bw_a=8, bw_b=8, blocking=SMALL)
        free = ParallelMixGemm(cfg, cores=2, barrier_cycles=0).gemm(a, b)
        taxed = ParallelMixGemm(cfg, cores=2,
                                barrier_cycles=500).gemm(a, b)
        assert taxed.cycles == free.cycles + 500

    def test_gops_scale(self):
        rng = np.random.default_rng(1)
        a = rng.integers(-2, 2, size=(8, 192))
        b = rng.integers(-2, 2, size=(192, 64))
        cfg = MixGemmConfig(bw_a=2, bw_b=2, blocking=SMALL)
        one = ParallelMixGemm(cfg, cores=1, barrier_cycles=0).gemm(a, b)
        four = ParallelMixGemm(cfg, cores=4, barrier_cycles=0).gemm(a, b)
        assert four.gops() > 2.5 * one.gops()


class TestPmuAggregation:
    def test_combined_counters(self):
        a, b = _operands()
        cfg = MixGemmConfig(bw_a=8, bw_b=8, blocking=SMALL)
        result = ParallelMixGemm(cfg, cores=2).gemm(a, b)
        pmu = combined_pmu(result)
        assert pmu.macs == sum(r.pmu.macs for r in result.per_core)
        assert pmu.cycles_total == result.cycles
        assert pmu.ip_instructions > 0


class TestSharedPackingCache:
    """Every core consumes the same packed A through one shared cache."""

    def test_a_packed_exactly_once_across_cores(self):
        from repro.core.packcache import PackingCache

        a, b = _operands(m=8, k=96, n=32)
        cfg = MixGemmConfig(bw_a=8, bw_b=8, blocking=SMALL)
        cache = PackingCache()
        result = ParallelMixGemm(cfg, cores=4, backend="event",
                                 pack_cache=cache).gemm(a, b)
        a_entries = [key for key in cache._entries if key[0] == "A"]
        assert len(a_entries) == 1
        # Cores 2..4 hit the entry core 1 packed.
        assert cache.stats.hits >= result.cores - 1
        # The N-slices of B are distinct matrices: one pack each.
        b_entries = [key for key in cache._entries if key[0] == "B"]
        assert len(b_entries) == result.cores
        assert np.array_equal(result.c, a.astype(np.int64) @ b)

    def test_second_call_packs_nothing(self):
        from repro.core.packcache import PackingCache

        a, b = _operands(m=8, k=96, n=32)
        cfg = MixGemmConfig(bw_a=8, bw_b=8, blocking=SMALL)
        cache = PackingCache()
        executor = ParallelMixGemm(cfg, cores=4, backend="event",
                                   pack_cache=cache)
        executor.gemm(a, b)
        packs_before = cache.stats.packs
        executor.gemm(a, b)
        assert cache.stats.packs == packs_before


class TestMisalignedN:
    """N=13 with nr=4 leaves a ragged final slice; still bit-exact."""

    def test_n13_cores4_bit_exact_vs_single_core(self):
        a, b = _operands(m=8, k=96, n=13)
        cfg = MixGemmConfig(bw_a=8, bw_b=8, blocking=SMALL)
        single = MixGemm(cfg, emulate_datapath=False).gemm(a, b)
        parallel = ParallelMixGemm(cfg, cores=4).gemm(a, b)
        assert np.array_equal(parallel.c, single.c)
        assert np.array_equal(parallel.c, a.astype(np.int64) @ b)

    def test_n13_cores4_efficiency_accounting(self):
        a, b = _operands(m=8, k=96, n=13)
        cfg = MixGemmConfig(bw_a=8, bw_b=8, blocking=SMALL)
        result = ParallelMixGemm(cfg, cores=4, barrier_cycles=0).gemm(a, b)
        # 13 columns over nr=4 cores: three full nr-aligned slices plus
        # one single-column remainder, so all four cores engage.
        assert result.cores == 4
        serial = sum(r.cycles for r in result.per_core)
        expected = serial / (result.cycles * result.cores)
        assert result.parallel_efficiency == pytest.approx(expected)
        # The ragged split is imbalanced by construction: the remainder
        # core finishes early, so efficiency is strictly below 1 but
        # still bounded by the slowest-core model.
        assert 0.0 < result.parallel_efficiency < 1.0


class TestPerCallCores:
    """One bank serves several worker counts via gemm(cores=...)."""

    def test_subset_matches_full_bank(self):
        a, b = _operands(n=32)
        cfg = MixGemmConfig(bw_a=8, bw_b=8, blocking=SMALL)
        bank = ParallelMixGemm(cfg, cores=4)
        full = bank.gemm(a, b)
        for cores in (1, 2, 3, 4):
            restricted = bank.gemm(a, b, cores=cores)
            assert restricted.cores <= cores
            assert np.array_equal(restricted.c, full.c)

    def test_out_of_range_cores_rejected(self):
        from repro.core.binseg import BinSegError

        a, b = _operands()
        bank = ParallelMixGemm(
            MixGemmConfig(bw_a=8, bw_b=8, blocking=SMALL), cores=2)
        with pytest.raises(BinSegError, match="outside the constructed"):
            bank.gemm(a, b, cores=3)
        with pytest.raises(BinSegError, match="outside the constructed"):
            bank.gemm(a, b, cores=0)

    def test_default_uses_constructed_width(self):
        a, b = _operands(n=32)
        cfg = MixGemmConfig(bw_a=8, bw_b=8, blocking=SMALL)
        bank = ParallelMixGemm(cfg, cores=3)
        assert bank.gemm(a, b).cores == 3
