"""Golden-vector suite tests (the RTL-verification artifact)."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.binseg import DEFAULT_MUL_WIDTH, BinSegSpec, cluster_datapath
from repro.core.golden import (
    dump_suite,
    generate_suite,
    generate_vector,
    load_suite,
    verify_vector,
)


class TestGeneration:
    def test_suite_covers_all_49_configs(self):
        suite = generate_suite(vectors_per_config=2)
        configs = {(v.bw_a, v.bw_b) for v in suite}
        assert len(configs) == 49
        assert len(suite) == 98

    def test_every_vector_verifies(self):
        for vector in generate_suite(vectors_per_config=8, seed=3):
            assert verify_vector(vector), (vector.bw_a, vector.bw_b)

    def test_unsigned_suite_verifies(self):
        for vector in generate_suite(vectors_per_config=4, signed=False):
            assert verify_vector(vector)
            assert min(vector.a_elements) >= 0

    def test_expected_is_true_inner_product(self):
        rng = np.random.default_rng(0)
        spec = BinSegSpec(bw_a=5, bw_b=3)
        v = generate_vector(spec, rng)
        assert v.expected == int(np.dot(v.a_elements, v.b_elements))

    def test_fields_describe_datapath(self):
        rng = np.random.default_rng(1)
        spec = BinSegSpec(bw_a=8, bw_b=8)
        v = generate_vector(spec, rng)
        assert v.cluster_size == 3
        assert v.cw == 19
        assert v.slice_msb - v.slice_lsb + 1 == v.cw
        assert 0 <= v.a_cluster < (1 << 64)
        assert 0 <= v.product < (1 << 128)

    def test_deterministic_by_seed(self):
        a = generate_suite(vectors_per_config=1, seed=5)
        b = generate_suite(vectors_per_config=1, seed=5)
        assert a == b


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        suite = generate_suite(vectors_per_config=2, seed=7)
        path = tmp_path / "golden.json"
        dump_suite(str(path), suite)
        loaded = load_suite(str(path))
        assert loaded == suite

    def test_loaded_vectors_still_verify(self, tmp_path):
        suite = generate_suite(vectors_per_config=2, seed=9)
        path = tmp_path / "golden.json"
        dump_suite(str(path), suite)
        for vector in load_suite(str(path)):
            assert verify_vector(vector)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other", "vectors": []}')
        with pytest.raises(ValueError):
            load_suite(str(path))

    def test_hex_encoding(self, tmp_path):
        suite = generate_suite(vectors_per_config=1, seed=2)[:1]
        path = tmp_path / "golden.json"
        dump_suite(str(path), suite)
        text = path.read_text()
        assert "mix-gemm-golden-v1" in text


#: The committed suite: 49 (bw_a, bw_b) pairs x 64 signed vectors.
COMMITTED_SUITE = Path(__file__).resolve().parents[2] / "golden.json"


class TestCommittedSuite:
    """``golden.json`` pins the packed clusters, the wide product and the
    slice bit for bit: any drift in the shared pack/multiply/slice code
    shows up here."""

    def test_regenerates_byte_for_byte(self, tmp_path):
        path = tmp_path / "golden.json"
        dump_suite(str(path), generate_suite(vectors_per_config=64))
        assert path.read_bytes() == COMMITTED_SUITE.read_bytes()

    def test_shared_datapath_reproduces_every_vector(self):
        suite = load_suite(str(COMMITTED_SUITE))
        assert len(suite) == 49 * 64
        assert len({(v.bw_a, v.bw_b) for v in suite}) == 49
        operand_mask = (1 << DEFAULT_MUL_WIDTH) - 1
        product_mask = (1 << 2 * DEFAULT_MUL_WIDTH) - 1
        for v in suite:
            datapath = cluster_datapath(v.cluster_size, v.cw)
            assert datapath.slice_lsb == v.slice_lsb
            a_cluster = datapath.pack_a(v.a_elements)
            b_cluster = datapath.pack_b(v.b_elements)
            product = a_cluster * b_cluster
            assert a_cluster & operand_mask == v.a_cluster
            assert b_cluster & operand_mask == v.b_cluster
            assert product & product_mask == v.product
            assert datapath.extract(product) == v.expected
            assert datapath.inner_product(
                v.a_elements, v.b_elements) == v.expected
