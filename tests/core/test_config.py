"""Unit tests for MixGemmConfig, u-vector layout and kua/kub selection."""

import pytest

from repro.core.binseg import BinSegError
from repro.core.config import (
    FIGURE6_CONFIGS,
    BlockingParams,
    MixGemmConfig,
    UVectorLayout,
    all_size_combinations,
    blocking_candidates,
    blocking_problems,
    elements_per_uvector,
    select_ku,
)


class TestElementsPerUVector:
    @pytest.mark.parametrize(
        "bw, expected",
        [(8, 8), (7, 9), (6, 10), (5, 12), (4, 16), (3, 21), (2, 32)],
    )
    def test_capacity(self, bw, expected):
        assert elements_per_uvector(bw) == expected

    def test_paper_chunk_range(self):
        # Section III-A: "chunks ranging from 8 to 32 elements".
        assert elements_per_uvector(8) == 8
        assert elements_per_uvector(2) == 32

    def test_unsupported(self):
        with pytest.raises(BinSegError):
            elements_per_uvector(9)


class TestSelectKu:
    @pytest.mark.parametrize(
        "bw_a, bw_b, expected",
        [
            (8, 8, (4, 4)),  # Figure 4 / Table I
            (8, 6, (4, 3)),  # Figure 4
            (6, 4, (3, 2)),  # Figure 4
        ],
    )
    def test_paper_choices(self, bw_a, bw_b, expected):
        assert select_ku(bw_a, bw_b) == expected

    def test_respects_max_ku(self):
        for a, w in all_size_combinations():
            kua, kub = select_ku(a, w)
            assert 1 <= kua <= 4
            assert 1 <= kub <= 4

    def test_equal_widths_take_max_group(self):
        # Same width on both sides: zero padding, so prefer the biggest
        # group the register file allows.
        for bw in (8, 6, 4, 2):
            assert select_ku(bw, bw) == (4, 4)

    def test_symmetry_swaps(self):
        kua, kub = select_ku(8, 4)
        assert select_ku(4, 8) == (kub, kua)


class TestUVectorLayout:
    def test_a8w6_group_and_padding(self):
        lay = UVectorLayout(bw_a=8, bw_b=6, kua=4, kub=3)
        assert lay.slots_a == 32
        assert lay.slots_b == 30
        assert lay.group_elements == 30
        assert lay.padded_slots == 2
        assert lay.padding_fraction == pytest.approx(2 / 62)

    def test_equal_width_no_padding(self):
        lay = UVectorLayout(bw_a=4, bw_b=4, kua=4, kub=4)
        assert lay.padded_slots == 0
        assert lay.padding_fraction == 0.0

    def test_average_padding_near_paper(self):
        # Section III-C: padding overhead with kua = kub <= 4 is 2.4% on
        # average across supported configurations.  Our selection achieves
        # at most that (it optimizes padding directly).
        fractions = []
        for a, w in all_size_combinations():
            kua, kub = select_ku(a, w)
            lay = UVectorLayout(bw_a=a, bw_b=w, kua=kua, kub=kub)
            fractions.append(lay.padding_fraction)
        avg = sum(fractions) / len(fractions)
        assert avg <= 0.035  # paper: 2.4%; allow modest slack


class TestBlockingParams:
    def test_table1_defaults(self):
        blk = BlockingParams()
        assert (blk.mc, blk.nc, blk.kc) == (256, 256, 256)
        assert (blk.mr, blk.nr) == (4, 4)
        assert blk.accmem_slots == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockingParams(mc=0)
        with pytest.raises(ValueError):
            BlockingParams(mr=8, mc=4)
        with pytest.raises(ValueError):
            BlockingParams(nr=8, nc=4)


class TestGridValidity:
    def test_mr_exceeding_mc_rejected(self):
        problems = blocking_problems(4, 16, 64, 16, 4)
        assert any("mr=16 exceeds mc=4" in p for p in problems)
        with pytest.raises(ValueError, match="mr cannot exceed mc"):
            BlockingParams(mc=4, nc=16, kc=64, mr=16, nr=4)

    def test_nr_exceeding_nc_rejected(self):
        problems = blocking_problems(16, 4, 64, 4, 16)
        assert any("nr=16 exceeds nc=4" in p for p in problems)
        with pytest.raises(ValueError, match="nr cannot exceed nc"):
            BlockingParams(mc=16, nc=4, kc=64, mr=4, nr=16)

    def test_nonpositive_axes_rejected(self):
        assert blocking_problems(0, 16, 64, 4, 4)
        assert blocking_problems(16, 16, -1, 4, 4)

    def test_default_grid_all_buildable(self):
        grid = blocking_candidates()
        assert grid
        for b in grid:
            assert blocking_problems(b.mc, b.nc, b.kc, b.mr, b.nr) == []

    def test_invalid_grid_points_filtered_not_raised(self):
        grid = blocking_candidates(mc_values=(2, 16), mr_values=(4,))
        assert all(b.mr <= b.mc for b in grid)
        assert {b.mc for b in grid} == {16}


class TestMixGemmConfig:
    def test_defaults_resolve_ku(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=6)
        assert (cfg.kua, cfg.kub) == (4, 3)

    def test_explicit_ku_respected(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=8, kua=2, kub=2)
        assert (cfg.kua, cfg.kub) == (2, 2)

    def test_name_notation(self):
        assert MixGemmConfig(bw_a=6, bw_b=4).name == "a6-w4"

    def test_macs_per_cycle(self):
        assert MixGemmConfig(bw_a=8, bw_b=8).macs_per_cycle == 3
        assert MixGemmConfig(bw_a=2, bw_b=2).macs_per_cycle == 7

    def test_compression(self):
        ca, cb = MixGemmConfig(bw_a=8, bw_b=2).compression_vs_fp64
        assert (ca, cb) == (8.0, 32.0)

    def test_describe(self):
        text = MixGemmConfig(bw_a=8, bw_b=6).describe()
        assert "a8-w6" in text
        assert "kua=4" in text

    def test_invalid_buffer_depth(self):
        with pytest.raises(ValueError):
            MixGemmConfig(source_buffer_depth=0)


class TestFigure6Configs:
    def test_twelve_configurations(self):
        assert len(FIGURE6_CONFIGS) == 12

    def test_all_within_supported_range(self):
        for a, w in FIGURE6_CONFIGS:
            assert 2 <= w <= a <= 8

    def test_endpoints_present(self):
        assert (8, 8) in FIGURE6_CONFIGS
        assert (2, 2) in FIGURE6_CONFIGS
        assert (4, 4) in FIGURE6_CONFIGS
