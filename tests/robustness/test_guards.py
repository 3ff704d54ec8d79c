"""Integrity guards: checksums, range guard, finite fence, weight vault."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import BlockingParams, MixGemmConfig
from repro.core.packing import pack_matrix_a
from repro.robustness.errors import GuardError
from repro.robustness.faults import demo_graph, demo_input
from repro.robustness.guards import (
    GUARD_LEVELS,
    PackGuard,
    TensorVault,
    accumulator_bound,
    check_finite,
    checksum_words,
    guard_rank,
    measure_guard_overhead,
    packed_checksum,
)


def small_config():
    return MixGemmConfig(bw_a=4, bw_b=4,
                         blocking=BlockingParams(mc=8, nc=8, kc=64))


def packed_operand():
    rng = np.random.default_rng(3)
    return pack_matrix_a(rng.integers(-8, 8, size=(4, 20)), small_config())


def flip_one_bit(packed, run=0, word=0, bit=0):
    kv = packed.kvectors[run]
    words = list(kv.words)
    words[word] ^= 1 << bit
    kvectors = list(packed.kvectors)
    kvectors[run] = replace(kv, words=tuple(words))
    return replace(packed, kvectors=tuple(kvectors))


class TestGuardLevels:
    def test_levels_are_ordered(self):
        ranks = [guard_rank(level) for level in GUARD_LEVELS]
        assert ranks == sorted(ranks)
        assert guard_rank("off") == 0

    def test_unknown_level_rejected(self):
        with pytest.raises(GuardError) as err:
            guard_rank("paranoid")
        assert err.value.guard == "config"


class TestChecksums:
    def test_single_bit_flip_changes_digest(self):
        words = [0x0123456789ABCDEF, 0xFEDCBA9876543210, 0]
        base = checksum_words(words)
        for i in range(len(words)):
            for bit in (0, 17, 63):
                flipped = list(words)
                flipped[i] ^= 1 << bit
                assert checksum_words(flipped) != base

    def test_word_order_matters(self):
        assert checksum_words([1, 2]) != checksum_words([2, 1])

    def test_packed_checksum_sees_every_word(self):
        packed = packed_operand()
        base = packed_checksum(packed)
        last_run = packed.n_runs - 1
        last_word = packed.words_per_run - 1
        assert packed_checksum(
            flip_one_bit(packed, run=last_run, word=last_word, bit=63)
        ) != base


class TestPackGuard:
    def test_verify_accepts_clean_operand(self):
        guard = PackGuard(small_config())
        packed = packed_operand()
        guard.verify(packed, guard.checksum(packed), "A")

    def test_verify_detects_corruption(self):
        guard = PackGuard(small_config())
        packed = packed_operand()
        digest = guard.checksum(packed)
        with pytest.raises(GuardError) as err:
            guard.verify(flip_one_bit(packed), digest, "A")
        assert err.value.guard == "checksum"
        assert "operand A" in str(err.value)

    def test_accumulator_bound_is_algebraic(self):
        # 4-bit signed operands reach |v| = 8, so k * 64 bounds |C|.
        assert accumulator_bound(10, small_config()) == 10 * 8 * 8

    def test_range_guard_accepts_legal_accumulators(self):
        guard = PackGuard(small_config())
        k = 10
        bound = accumulator_bound(k, small_config())
        guard.check_result(np.array([[bound, -bound]]), k)

    def test_range_guard_rejects_impossible_values(self):
        guard = PackGuard(small_config())
        k = 10
        bound = accumulator_bound(k, small_config())
        with pytest.raises(GuardError) as err:
            guard.check_result(np.array([[0, bound + 1]]), k)
        assert err.value.guard == "range"

    def test_empty_result_passes(self):
        PackGuard(small_config()).check_result(np.empty((0, 0)), 10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFiniteFence:
    """The fence decides on one sum and scans only when the sum is not
    finite; every case also runs with RuntimeWarnings as errors."""

    def test_finite_tensor_passes(self):
        check_finite("n0", np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, bad):
        arr = np.zeros((2, 2))
        arr[1, 1] = bad
        with pytest.raises(GuardError) as err:
            check_finite("conv1", arr)
        assert err.value.guard == "finite"
        assert str(err.value) == "non-finite values after node 'conv1'"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float32_rejected(self, bad):
        arr = np.ones((3, 5), dtype=np.float32)
        arr[2, 4] = bad
        with pytest.raises(GuardError):
            check_finite("conv1", arr)

    def test_opposite_infinities_rejected(self):
        # +inf + -inf sums to NaN, which is still not finite.
        arr = np.array([1.0, np.inf, -np.inf, 2.0])
        with pytest.raises(GuardError):
            check_finite("n1", arr)

    @pytest.mark.parametrize("dtype,big", [(np.float64, 1e308),
                                           (np.float32, 3e38)])
    def test_finite_values_whose_sum_overflows_pass(self, dtype, big):
        arr = np.full((4, 3), big, dtype=dtype)
        arr[0, 0] = -big / 2
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.add.reduce(arr, axis=None))
        check_finite("n2", arr)
        check_finite("n2", -arr)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_empty_arrays_pass(self, dtype):
        check_finite("n3", np.empty((0, 4), dtype=dtype))
        check_finite("n3", np.empty((2, 0, 3, 3), dtype=dtype))

    def test_nchw_view_of_nhwc_memory(self):
        nhwc = np.random.default_rng(0).standard_normal((2, 5, 4, 3))
        nchw = nhwc.transpose(0, 3, 1, 2)
        assert not nchw.flags.c_contiguous
        check_finite("n4", nchw)
        nhwc[1, 4, 3, 2] = np.nan
        with pytest.raises(GuardError):
            check_finite("n4", nchw)
        nhwc[1, 4, 3, 2] = 1e308
        nhwc[0, 0, 0, 0] = 1e308
        check_finite("n4", nchw)


class TestTensorVault:
    def test_restores_corrupted_tensor(self):
        graph = demo_graph()
        vault = TensorVault.snapshot(graph)
        index, node = next(
            (i, n) for i, n in enumerate(graph) if "weight" in n.tensors)
        original = node.tensors["weight"].copy()
        node.tensors["weight"][0] += 1.0
        restored = vault.verify_and_restore(index, node)
        assert restored == ["weight"]
        assert np.array_equal(node.tensors["weight"], original)

    def test_clean_tensors_left_alone(self):
        graph = demo_graph()
        vault = TensorVault.snapshot(graph)
        for i, node in enumerate(graph):
            assert vault.verify_and_restore(i, node) == []

    def test_unknown_node_is_ignored(self):
        from repro.runtime.graph import NodeSpec
        vault = TensorVault.snapshot(demo_graph())
        stranger = NodeSpec(op="linear",
                            tensors={"weight": np.ones((2, 2))})
        assert vault.verify_and_restore(99, stranger) == []


class TestOverheadMeasurement:
    def test_reports_every_requested_level(self):
        timings = measure_guard_overhead(
            demo_graph(), demo_input(), backend="numpy",
            levels=("off", "standard"), repeats=1,
        )
        assert set(timings) == {"off", "standard"}
        assert all(t > 0 for t in timings.values())
