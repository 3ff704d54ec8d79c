"""Unit tests for binary segmentation (paper Section II-B, Figure 1)."""

import math

import numpy as np
import pytest

from repro.core.binseg import (
    BinSegError,
    BinSegSpec,
    SUPPORTED_BITWIDTHS,
    arithmetic_reduction,
    cluster_inner_product,
    clustering_width,
    extract_inner_product,
    input_cluster_size,
    multiplications_required,
    pack_cluster,
    segmented_inner_product,
    slice_bounds,
    value_range,
)


class TestClusteringWidth:
    def test_equation3_formula(self):
        # cw >= 1 + bw_a + bw_b + ceil(log2(n + 1))
        assert clustering_width(3, 2, 2) == 1 + 3 + 2 + 2
        assert clustering_width(8, 8, 3) == 1 + 8 + 8 + 2
        assert clustering_width(2, 2, 7) == 1 + 2 + 2 + 3

    def test_grows_with_cluster_size(self):
        widths = [clustering_width(4, 4, n) for n in range(1, 20)]
        assert widths == sorted(widths)

    def test_invalid_cluster_size(self):
        with pytest.raises(BinSegError):
            clustering_width(4, 4, 0)


class TestInputClusterSize:
    def test_paper_figure1_example(self):
        # 3-bit x 2-bit on a 16-bit multiplier: cw = 8, 2 elements.
        assert input_cluster_size(3, 2, mul_width=16) == 2
        assert clustering_width(3, 2, 2) == 8

    @pytest.mark.parametrize(
        "bw_a, bw_b, expected",
        [
            (8, 8, 3),  # paper: a8-w8 performs up to 3 MAC/cycle
            (8, 6, 3),  # paper: a8-w6 performs up to 3 MAC/cycle
            (6, 4, 4),  # paper: a6-w4 features a cluster of 4 elements
            (2, 2, 7),  # paper: performance ranges up to 7 MAC/cycle
        ],
    )
    def test_paper_mac_per_cycle_points(self, bw_a, bw_b, expected):
        assert input_cluster_size(bw_a, bw_b) == expected

    def test_range_is_3_to_7_at_64bit(self):
        # Paper Section II-B: "from 3 MAC/cycle to 7 MAC/cycle".
        sizes = {
            input_cluster_size(a, b)
            for a in SUPPORTED_BITWIDTHS
            for b in SUPPORTED_BITWIDTHS
        }
        assert min(sizes) == 3
        assert max(sizes) == 7

    def test_memoised_yet_rejects_bad_bitwidth_every_call(self):
        # Exceptions are never cached: a bad width raises on every call.
        for _ in range(2):
            with pytest.raises(BinSegError):
                input_cluster_size(9, 8)
        before = input_cluster_size.cache_info().hits
        assert input_cluster_size(7, 5) == input_cluster_size(7, 5)
        assert input_cluster_size.cache_info().hits > before

    def test_monotone_in_bitwidth(self):
        # Narrower data can never reduce the cluster size.
        for bw in range(2, 8):
            assert input_cluster_size(bw, bw) >= input_cluster_size(
                bw + 1, bw + 1
            )

    def test_feasibility_constraint(self):
        # Equation 4 must hold for the returned size, and fail for size + 1.
        for a in SUPPORTED_BITWIDTHS:
            for b in SUPPORTED_BITWIDTHS:
                n = input_cluster_size(a, b)
                assert n * clustering_width(a, b, n) <= 64
                assert (n + 1) * clustering_width(a, b, n + 1) > 64

    def test_rejects_unsupported_widths(self):
        with pytest.raises(BinSegError):
            input_cluster_size(1, 8)
        with pytest.raises(BinSegError):
            input_cluster_size(8, 9)

    def test_tiny_multiplier_rejected(self):
        with pytest.raises(BinSegError):
            input_cluster_size(8, 8, mul_width=8)


class TestSliceBounds:
    def test_figure1_slice(self):
        # cluster of 2, cw = 8 -> slice [15:8].
        msb, lsb = slice_bounds(2, 8)
        assert (msb, lsb) == (15, 8)

    def test_width_always_cw(self):
        for n in range(1, 8):
            for cw in (8, 12, 19):
                msb, lsb = slice_bounds(n, cw)
                assert msb - lsb + 1 == cw


class TestPackCluster:
    def test_figure1_input_clusters(self):
        # The paper's example packs to 1031, 515, 774 and 256.
        assert pack_cluster([4, 7], 8, reverse=False) == 1031
        assert pack_cluster([3, 2], 8, reverse=True) == 515
        assert pack_cluster([3, 6], 8, reverse=False) == 774
        assert pack_cluster([0, 1], 8, reverse=True) == 256

    def test_negative_elements_pack_over_z(self):
        # Packing is over the integers: negatives subtract.
        assert pack_cluster([-1, 1], 8, reverse=False) == -256 + 1


class TestExtractInnerProduct:
    def test_figure1_partials(self):
        assert extract_inner_product(1031 * 515, 2, 8) == 26
        assert extract_inner_product(774 * 256, 2, 8) == 6

    def test_borrow_correction_negative_low_digits(self):
        # Construct a product whose low digit is negative: a=[1, -1],
        # b=[1, 1] -> digits of conv: [..., 1*1 + (-1)*1 = 0, low=-1].
        got = cluster_inner_product([1, -1], [1, 1], 3, 3)
        assert got == 0


class TestClusterInnerProduct:
    def test_figure1_full(self):
        total = segmented_inner_product(
            [4, 7, 3, 6], [3, 2, 0, 1], 3, 2,
            signed_a=False, signed_b=False, mul_width=16,
        )
        assert total == 32

    def test_length_mismatch(self):
        with pytest.raises(BinSegError):
            cluster_inner_product([1, 2], [1], 4, 4)

    def test_oversized_cluster(self):
        with pytest.raises(BinSegError):
            cluster_inner_product([1] * 8, [1] * 8, 8, 8)

    def test_out_of_range_element(self):
        with pytest.raises(BinSegError):
            cluster_inner_product([300], [1], 8, 8)
        with pytest.raises(BinSegError):
            cluster_inner_product([-1], [1], 8, 8, signed_a=False)

    def test_extreme_values_signed(self):
        # All elements at the signed extremes for every width combination.
        for bw_a in SUPPORTED_BITWIDTHS:
            for bw_b in SUPPORTED_BITWIDTHS:
                n = input_cluster_size(bw_a, bw_b)
                lo_a, hi_a = value_range(bw_a, True)
                lo_b, hi_b = value_range(bw_b, True)
                for a_val, b_val in [(lo_a, lo_b), (lo_a, hi_b),
                                     (hi_a, lo_b), (hi_a, hi_b)]:
                    a = [a_val] * n
                    b = [b_val] * n
                    assert cluster_inner_product(
                        a, b, bw_a, bw_b
                    ) == n * a_val * b_val

    def test_extreme_values_unsigned(self):
        for bw_a in SUPPORTED_BITWIDTHS:
            for bw_b in SUPPORTED_BITWIDTHS:
                n = input_cluster_size(bw_a, bw_b)
                hi_a = (1 << bw_a) - 1
                hi_b = (1 << bw_b) - 1
                got = cluster_inner_product(
                    [hi_a] * n, [hi_b] * n, bw_a, bw_b,
                    signed_a=False, signed_b=False,
                )
                assert got == n * hi_a * hi_b

    def test_mixed_signedness(self):
        # Unsigned activations with signed weights (typical in QAT).
        got = cluster_inner_product(
            [255, 255, 255], [-128, -128, -128], 8, 8,
            signed_a=False, signed_b=True,
        )
        assert got == 3 * 255 * -128


class TestSegmentedInnerProduct:
    @pytest.mark.parametrize("bw_a", SUPPORTED_BITWIDTHS)
    @pytest.mark.parametrize("bw_b", SUPPORTED_BITWIDTHS)
    def test_matches_numpy_all_width_pairs(self, bw_a, bw_b):
        rng = np.random.default_rng(bw_a * 10 + bw_b)
        for n in (1, 2, 7, 33, 64):
            a = rng.integers(-(1 << (bw_a - 1)), 1 << (bw_a - 1), size=n)
            b = rng.integers(-(1 << (bw_b - 1)), 1 << (bw_b - 1), size=n)
            got = segmented_inner_product(a, b, bw_a, bw_b)
            assert got == int(a.astype(np.int64) @ b)

    def test_empty_rejected(self):
        assert segmented_inner_product([], [], 8, 8) == 0

    def test_length_mismatch(self):
        with pytest.raises(BinSegError):
            segmented_inner_product([1, 2], [3], 4, 4)


class TestComplexityReduction:
    def test_figure1_claim(self):
        # 4-element 3x2-bit inner product: 2.33x reduction.
        assert arithmetic_reduction(4, 3, 2, mul_width=16) == pytest.approx(
            7 / 3, abs=1e-9
        )

    def test_multiplications_required(self):
        assert multiplications_required(4, 3, 2, mul_width=16) == 2
        assert multiplications_required(32, 2, 2) == math.ceil(32 / 7)

    def test_reduction_improves_with_narrow_data(self):
        r8 = arithmetic_reduction(1024, 8, 8)
        r2 = arithmetic_reduction(1024, 2, 2)
        assert r2 > r8 > 1.0


class TestBinSegSpec:
    def test_describe_mentions_config(self):
        spec = BinSegSpec(bw_a=8, bw_b=8)
        text = spec.describe()
        assert "a8-w8" in text
        assert "3 MAC/cycle" in text

    def test_macs_per_cycle_equals_cluster_size(self):
        for a in SUPPORTED_BITWIDTHS:
            spec = BinSegSpec(bw_a=a, bw_b=a)
            assert spec.macs_per_cycle == spec.input_cluster_size

    def test_slice_consistency(self):
        spec = BinSegSpec(bw_a=4, bw_b=4)
        assert spec.slice_msb - spec.slice_lsb + 1 == spec.cw

    def test_invalid_width_rejected_at_construction(self):
        with pytest.raises(BinSegError):
            BinSegSpec(bw_a=1, bw_b=8)
