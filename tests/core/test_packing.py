"""Unit tests for u-vector packing and BLIS panel extraction."""

import numpy as np
import pytest

from repro.core.binseg import BinSegError
from repro.core.config import (
    BlockingParams,
    MixGemmConfig,
    aligned_kc,
    all_size_combinations,
)
from repro.core.packing import (
    create_micro_panel,
    pack_kvector,
    pack_matrix_a,
    pack_matrix_b,
    pack_word,
    unpack_word,
)


class TestWordPacking:
    def test_roundtrip_signed(self):
        values = [-8, 7, 0, -1, 3, 2, -5, 6]
        word = pack_word(values, 4)
        assert unpack_word(word, 4, 8, signed=True) == values

    def test_roundtrip_unsigned(self):
        values = [0, 255, 128, 1, 254, 3, 9, 100]
        word = pack_word(values, 8)
        assert unpack_word(word, 8, 8, signed=False) == values

    def test_element0_at_lsb(self):
        assert pack_word([5], 8) == 5
        assert pack_word([0, 5], 8) == 5 << 8

    def test_capacity_enforced(self):
        with pytest.raises(BinSegError):
            pack_word([0] * 9, 8)
        with pytest.raises(BinSegError):
            unpack_word(0, 8, 9, signed=True)

    def test_partial_word_padding_is_zero(self):
        word = pack_word([1, 2], 8)
        assert unpack_word(word, 8, 8, signed=True) == [1, 2, 0, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("bw", [2, 3, 4, 5, 6, 7, 8])
    def test_roundtrip_all_widths(self, bw):
        rng = np.random.default_rng(bw)
        capacity = 64 // bw
        values = list(
            rng.integers(-(1 << (bw - 1)), 1 << (bw - 1), size=capacity)
        )
        values = [int(v) for v in values]
        assert unpack_word(pack_word(values, bw), bw, capacity,
                           signed=True) == values


class TestKVector:
    def test_group_structure_a8w6(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=6)
        lay = cfg.layout
        values = list(range(-30, 30))  # k = 60, two groups of 30
        kv = pack_kvector(values, 8, lay.kua, lay.group_elements, signed=True)
        assert kv.n_groups == 2
        assert len(kv.words) == 2 * lay.kua
        assert kv.elements_in_group(0) == 30
        assert kv.elements_in_group(1) == 30
        assert kv.unpack() == values

    def test_partial_final_group(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=8)
        values = list(range(40))  # group = 32 -> groups of 32 + 8
        kv = pack_kvector(values, 8, cfg.kua, 32, signed=False)
        assert kv.n_groups == 2
        assert kv.elements_in_group(1) == 8
        assert kv.unpack() == values

    def test_empty_rejected(self):
        with pytest.raises(BinSegError):
            pack_kvector([], 8, 4, 32, signed=True)

    def test_group_out_of_range(self):
        kv = pack_kvector([1, 2, 3], 8, 4, 32, signed=True)
        with pytest.raises(IndexError):
            kv.elements_in_group(1)


class TestPackedMatrix:
    @pytest.mark.parametrize("bw_a, bw_b", [(8, 8), (8, 2), (6, 4), (3, 3)])
    def test_roundtrip_a(self, bw_a, bw_b):
        cfg = MixGemmConfig(bw_a=bw_a, bw_b=bw_b)
        rng = np.random.default_rng(bw_a)
        a = rng.integers(-(1 << (bw_a - 1)), 1 << (bw_a - 1), size=(7, 45))
        packed = pack_matrix_a(a, cfg)
        assert np.array_equal(packed.to_dense(), a)

    @pytest.mark.parametrize("bw_a, bw_b", [(8, 8), (8, 2), (6, 4), (3, 3)])
    def test_roundtrip_b(self, bw_a, bw_b):
        cfg = MixGemmConfig(bw_a=bw_a, bw_b=bw_b)
        rng = np.random.default_rng(bw_b)
        b = rng.integers(-(1 << (bw_b - 1)), 1 << (bw_b - 1), size=(45, 7))
        packed = pack_matrix_b(b, cfg)
        assert np.array_equal(packed.to_dense(), b)

    def test_memory_footprint_compression(self):
        # 2-bit data compress 32 elements per 64-bit word.
        cfg = MixGemmConfig(bw_a=2, bw_b=2)
        a = np.zeros((4, 128), dtype=np.int64)
        packed = pack_matrix_a(a, cfg)
        dense_bytes = a.size * 8  # as fp64/int64
        assert packed.memory_bytes == dense_bytes / 32

    def test_padding_overhead_mixed(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=6)
        # B at 6 bits: 10 elements per word, 60 of 64 bits used.
        b = np.zeros((30, 4), dtype=np.int64)
        packed = pack_matrix_b(b, cfg)
        assert packed.padding_overhead > 0

    def test_range_validation(self):
        cfg = MixGemmConfig(bw_a=4, bw_b=4)
        bad = np.full((2, 8), 100, dtype=np.int64)
        with pytest.raises(BinSegError):
            pack_matrix_a(bad, cfg)

    def test_requires_2d_integer(self):
        cfg = MixGemmConfig()
        with pytest.raises(BinSegError):
            pack_matrix_a(np.zeros(8), cfg)
        with pytest.raises(BinSegError):
            pack_matrix_a(np.zeros((2, 8), dtype=np.float64), cfg)


class TestPanels:
    def test_micro_panel_edge_zero_runs(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=8)
        a = np.arange(2 * 32, dtype=np.int64).reshape(2, 32) % 100 - 50
        packed = pack_matrix_a(a, cfg)
        up = create_micro_panel(packed, 0, 4, 0, 32)
        assert up.runs[0].unpack() == list(a[0])
        assert all(w == 0 for w in up.runs[2].words)
        assert all(w == 0 for w in up.runs[3].words)

    def test_micro_panel_k_slice(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=8)
        a = np.arange(4 * 64, dtype=np.int64).reshape(4, 64) % 100 - 50
        packed = pack_matrix_a(a, cfg)
        up = create_micro_panel(packed, 0, 4, 32, 64)
        assert up.runs[0].k == 32
        assert up.runs[0].unpack() == list(a[0, 32:64])

    def test_unaligned_k_slice_rejected(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=8)
        a = np.zeros((4, 64), dtype=np.int64)
        packed = pack_matrix_a(a, cfg)
        with pytest.raises(BinSegError):
            create_micro_panel(packed, 0, 4, 5, 37)

    def test_micro_panel_last_of_ten_runs(self):
        # Ten runs cut four at a time: the third u-panel holds runs 8-9
        # and pads two zero runs past the matrix edge.
        cfg = MixGemmConfig(bw_a=8, bw_b=8)
        a = np.arange(10 * 32, dtype=np.int64).reshape(10, 32) % 100 - 50
        packed = pack_matrix_a(a, cfg)
        up = create_micro_panel(packed, 8, 4, 0, 32)
        assert up.runs[0].unpack() == list(a[8])
        assert up.runs[1].unpack() == list(a[9])
        assert up.runs[2].unpack() == [0] * 32
        assert up.runs[3].unpack() == [0] * 32


class TestAlignedKc:
    def test_rounds_down_to_group(self):
        assert aligned_kc(256, 30) == 240
        assert aligned_kc(256, 32) == 256

    def test_never_below_one_group(self):
        assert aligned_kc(10, 32) == 32

    def test_kc_elements_counts_a_uvectors(self):
        # Table I: kc = 256 u-vectors of 8-bit A is 2,048 elements; a
        # kc too short for one group still spans one whole group.
        assert MixGemmConfig(bw_a=8, bw_b=8).kc_elements == 2048
        tiny = MixGemmConfig(bw_a=8, bw_b=8,
                             blocking=BlockingParams(kc=1))
        assert tiny.kc_elements == tiny.layout.group_elements
        for bw_a, bw_b in all_size_combinations():
            cfg = MixGemmConfig(bw_a=bw_a, bw_b=bw_b)
            lay = cfg.layout
            assert cfg.kc_elements == aligned_kc(
                cfg.blocking.kc * lay.elems_a, lay.group_elements)


class TestPaddingAcrossAllConfigs:
    def test_every_config_roundtrips(self):
        rng = np.random.default_rng(7)
        for bw_a, bw_b in all_size_combinations():
            cfg = MixGemmConfig(bw_a=bw_a, bw_b=bw_b)
            k = cfg.layout.group_elements + 3  # force a partial group
            a = rng.integers(-(1 << (bw_a - 1)), 1 << (bw_a - 1), size=(3, k))
            packed = pack_matrix_a(a, cfg)
            assert np.array_equal(packed.to_dense(), a), cfg.name
