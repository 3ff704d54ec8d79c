"""Figure/table generator tests: structure + paper-shape assertions."""

import pytest

from repro.eval.figures import (
    figure6,
    figure6_steady_state,
    figure7,
    figure7_speedup_ranges,
    int8_blis_speedup,
)
from repro.eval.pareto import ParetoPoint, dominates, pareto_frontier
from repro.eval.reporting import (
    render_figure6,
    render_figure7,
    render_table2,
    render_table3,
)
from repro.eval.tables import paper_mixgemm_row, table1, table2, table3
from repro.eval.workloads import (
    FIGURE6_CONFIG_PAIRS,
    FIGURE6_SIZES,
    NETWORK_ORDER,
)
from repro.models.inventory import NETWORKS, table3_convolution


@pytest.fixture(scope="module")
def fig6_points():
    return figure6(sizes=(64, 256, 2048))


@pytest.fixture(scope="module")
def fig7_points():
    return figure7()


class TestFigure6:
    def test_full_grid(self, fig6_points):
        assert len(fig6_points) == 3 * len(FIGURE6_CONFIG_PAIRS)

    def test_steady_state_range(self, fig6_points):
        steady = figure6_steady_state(fig6_points)
        # Paper: from 10.2x (a8-w8) to 27.2x (a2-w2).
        assert steady["a8-w8"] == pytest.approx(10.2, rel=0.12)
        assert steady["a2-w2"] == pytest.approx(27.2, rel=0.12)
        assert min(steady.values()) > 8.0
        assert max(steady.values()) < 32.0

    def test_a2w2_fastest_at_steady_state(self, fig6_points):
        steady = figure6_steady_state(fig6_points)
        assert max(steady, key=steady.get) == "a2-w2"

    def test_int8_blis_modest(self):
        # Paper: int8 BLIS only ~2.5x over DGEMM -- far below 8x.
        assert 1.3 < int8_blis_speedup() < 3.0

    def test_render(self, fig6_points):
        text = render_figure6(fig6_points)
        assert "a8-w8" in text
        assert "n=2048" in text


class TestFigure7:
    def test_covers_all_networks(self, fig7_points):
        assert {p.network for p in fig7_points} == set(NETWORK_ORDER)

    def test_speedup_ranges_match_paper_band(self, fig7_points):
        # Paper: Mix-GEMM outperforms FP32 by 5.3x to 15.1x.
        ranges = figure7_speedup_ranges(fig7_points)
        for name, (lo, hi) in ranges.items():
            assert lo > 4.0, name
            assert hi < 19.0, name

    def test_every_network_has_a_frontier(self, fig7_points):
        for name in NETWORK_ORDER:
            frontier = [p for p in fig7_points
                        if p.network == name and p.on_frontier]
            assert frontier, name

    def test_a2w2_always_fastest(self, fig7_points):
        for name in NETWORK_ORDER:
            pts = [p for p in fig7_points if p.network == name]
            fastest = max(pts, key=lambda p: p.gops)
            assert fastest.config == "a2-w2", name

    def test_a8w8_most_accurate(self, fig7_points):
        for name in NETWORK_ORDER:
            pts = [p for p in fig7_points if p.network == name]
            best = max(pts, key=lambda p: p.top1)
            assert best.config in ("a8-w8", "a7-w7"), name

    def test_a5w5_speedup_over_a8w8(self, fig7_points):
        # Paper: a5-w5 gives ~60% more performance than a8-w8 at similar
        # accuracy.
        for name in ("alexnet", "resnet18"):
            pts = {p.config: p for p in fig7_points if p.network == name}
            gain = pts["a5-w5"].gops / pts["a8-w8"].gops - 1
            assert 0.3 < gain < 0.9, name
            assert pts["a8-w8"].top1 - pts["a5-w5"].top1 < 0.5

    def test_render(self, fig7_points):
        text = render_figure7(fig7_points)
        assert "[alexnet]" in text
        assert "Pareto" in text


class TestPareto:
    def test_dominates(self):
        a = ParetoPoint("a", 2.0, 70.0)
        b = ParetoPoint("b", 1.0, 69.0)
        assert dominates(a, b)
        assert not dominates(b, a)

    def test_incomparable(self):
        fast = ParetoPoint("fast", 5.0, 60.0)
        accurate = ParetoPoint("acc", 1.0, 75.0)
        assert not dominates(fast, accurate)
        assert not dominates(accurate, fast)

    def test_frontier(self):
        pts = [
            ParetoPoint("a", 1.0, 75.0),
            ParetoPoint("b", 2.0, 74.0),
            ParetoPoint("c", 1.5, 73.0),   # dominated by b
            ParetoPoint("d", 3.0, 60.0),
        ]
        labels = [p.label for p in pareto_frontier(pts)]
        assert labels == ["a", "b", "d"]

    def test_duplicates_survive(self):
        pts = [ParetoPoint("x", 1.0, 1.0), ParetoPoint("y", 1.0, 1.0)]
        assert len(pareto_frontier(pts)) == 2


class TestTables:
    def test_table1(self):
        t1 = table1()
        assert (t1.mc, t1.nc, t1.kc, t1.mr, t1.nr) == (256, 256, 256, 4, 4)

    def test_table2_matches_paper(self):
        rows = table2()
        total = [r for r in rows if r.component.startswith("Total")][0]
        assert total.area_um2 == pytest.approx(13641.14, abs=0.1)
        assert total.soc_overhead_pct == pytest.approx(1.0, rel=0.01)
        text = render_table2(rows)
        assert "Src Buffers" in text

    def test_table3_contains_measured_and_published(self):
        rows = table3()
        keys = {r.key for r in rows}
        assert "mix_gemm" in keys
        assert "gemmlowp" in keys
        assert "eyeriss" in keys
        measured = [r for r in rows if r.measured]
        assert len(measured) == 1

    def test_measured_row_within_paper_ranges(self):
        measured = [r for r in table3() if r.measured][0]
        paper = paper_mixgemm_row()
        for bench in ("alexnet", "vgg16", "resnet18", "mobilenet_v1"):
            got = measured.perf[bench]
            want = paper.perf[bench]
            assert got.lo == pytest.approx(want.lo, rel=0.2), bench
            assert got.hi == pytest.approx(want.hi, rel=0.2), bench

    def test_measured_conv_microbenchmark(self):
        # Paper Table III: convolution 4.2 - 7.9 GOPS.
        measured = [r for r in table3() if r.measured][0]
        conv = measured.perf["convolution"]
        assert 2.5 < conv.lo < 6.5
        assert conv.hi > conv.lo

    def test_render_table3(self):
        text = render_table3(table3())
        assert "This work (measured)" in text
        assert "Decoupled" in text


class TestWorkloads:
    def test_sweep_size(self):
        assert len(figure6()) == \
            len(FIGURE6_SIZES) * len(FIGURE6_CONFIG_PAIRS)

    def test_conv_microbenchmark(self):
        conv = table3_convolution()
        assert conv.gemm_dims == (256, 288, 64)

    def test_registry_consistent(self):
        assert set(NETWORK_ORDER) == set(NETWORKS)
