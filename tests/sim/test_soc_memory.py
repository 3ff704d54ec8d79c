"""SoC composition, cache-sensitivity, and memory-traffic tests."""

import pytest

from repro.core.config import MixGemmConfig
from repro.models.inventory import get_network
from repro.sim.memory import gemm_traffic
from repro.sim.params import (
    DEFAULT_MEMORY_COSTS,
    PAPER_SOC,
    SMALL_CACHE_SOC,
)
from repro.sim.soc import (
    MixGemmSoc,
    cache_sensitivity,
)


def traffic(m, n, k, *, a_bytes=1.0, b_bytes=1.0, soc=PAPER_SOC):
    return gemm_traffic(
        m, n, k,
        a_bytes_per_element=a_bytes, b_bytes_per_element=b_bytes,
        acc_bytes=4, mc=256, nc=256, kc=2048, mr=4, nr=4,
        soc=soc, costs=DEFAULT_MEMORY_COSTS, out_bytes_per_element=1.0,
    )


class TestTrafficModel:
    def test_cache_resident_reads_once(self):
        t = traffic(64, 64, 64)
        # Fits L1: one A + B pass from DRAM plus the requantized output.
        assert t.dram_bytes == pytest.approx(2 * 64 * 64 + 64 * 64)
        assert t.l2_bytes == pytest.approx(2 * 64 * 64 + 2 * 64 * 64 * 4)

    def test_large_problem_restreams_a(self):
        t = traffic(2048, 2048, 2048)
        a_bytes = 2048 * 2048
        # A re-read from DRAM ceil(n/nc) = 8 times.
        assert t.dram_bytes > 8 * a_bytes

    def test_narrow_data_move_less(self):
        wide = traffic(1024, 1024, 1024, a_bytes=8.0, b_bytes=8.0)
        narrow = traffic(1024, 1024, 1024, a_bytes=0.25, b_bytes=0.25)
        assert narrow.dram_bytes < wide.dram_bytes
        assert narrow.l2_bytes < wide.l2_bytes

    def test_smaller_caches_increase_traffic(self):
        big = traffic(1024, 1024, 1024, soc=PAPER_SOC)
        small = traffic(1024, 1024, 1024, soc=SMALL_CACHE_SOC)
        assert small.dram_bytes + small.l2_bytes >= \
            big.dram_bytes + big.l2_bytes

    def test_stall_cycles_positive(self):
        t = traffic(512, 512, 512)
        assert t.stall_cycles(DEFAULT_MEMORY_COSTS) > 0


class TestMixGemmSoc:
    def test_network_runs(self):
        soc = MixGemmSoc()
        r = soc.network(get_network("resnet18"),
                        MixGemmConfig(bw_a=8, bw_b=8))
        assert 4.0 < r.gops < 7.0

    def test_adapted_blocking_on_small_soc(self):
        small = MixGemmSoc(SMALL_CACHE_SOC)
        big = MixGemmSoc(PAPER_SOC)
        cfg = MixGemmConfig(bw_a=8, bw_b=8)
        slow = small.gemm(1024, 1024, 1024, cfg).total_cycles
        fast = big.gemm(1024, 1024, 1024, cfg).total_cycles
        assert slow > fast

    def test_uengine_overhead_one_percent(self):
        assert MixGemmSoc().uengine_area_overhead == pytest.approx(
            0.01, rel=0.01
        )

    def test_efficiency_api(self):
        soc = MixGemmSoc()
        eff = soc.network_efficiency(get_network("alexnet"),
                                     MixGemmConfig(bw_a=2, bw_b=2))
        assert eff.gops_per_watt > 800


class TestCacheSensitivity:
    @pytest.fixture(scope="class")
    def penalties(self):
        workload = [(256, 256, 256), (1024, 1024, 1024)]
        configs = [MixGemmConfig(bw_a=a, bw_b=w)
                   for a, w in ((8, 8), (4, 4), (2, 2))]
        return cache_sensitivity(
            sizes=[
                (16 * 1024, 512 * 1024),   # shrink L1 only
                (32 * 1024, 64 * 1024),    # shrink L2 only
                (16 * 1024, 64 * 1024),    # shrink both
            ],
            workload=workload,
            configs=configs,
        )

    def test_small_penalties(self, penalties):
        # Paper Section IV-B: 5.2% / 7% / 11.8% average penalties -- in
        # all cases the slowdown is positive and modest.
        for value in penalties.values():
            assert 0.0 <= value < 0.30

    def test_both_worse_than_l1_only(self, penalties):
        l1_only = penalties[(16 * 1024, 512 * 1024)]
        both = penalties[(16 * 1024, 64 * 1024)]
        assert both >= l1_only - 0.01
