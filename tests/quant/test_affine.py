"""Unit tests for uniform affine quantization (Eq. 1-2)."""

import numpy as np
import pytest

from repro.quant.affine import (
    QuantError,
    QuantParams,
    dequantize,
    fake_quantize,
    qparams_from_range,
    quantization_error,
    quantize,
)


class TestQuantParams:
    def test_grid_bounds_signed(self):
        qp = QuantParams(scale=0.1, zero_point=0.0, bits=4, signed=True)
        assert (qp.qmin, qp.qmax) == (-8, 7)

    def test_grid_bounds_unsigned(self):
        qp = QuantParams(scale=0.1, zero_point=0.0, bits=4, signed=False)
        assert (qp.qmin, qp.qmax) == (0, 15)

    def test_symmetric_flag(self):
        assert np.all(QuantParams(0.1, 0.0, 8, True).zero_point == 0)
        assert not np.all(QuantParams(0.1, 3.0, 8, False).zero_point == 0)

    def test_validation(self):
        with pytest.raises(QuantError):
            QuantParams(scale=0.0, zero_point=0.0, bits=8, signed=True)
        with pytest.raises(QuantError):
            QuantParams(scale=0.1, zero_point=0.0, bits=9, signed=True)
        with pytest.raises(QuantError):
            QuantParams(scale=[0.1, 0.2], zero_point=0.0, bits=8,
                        signed=True)  # per-tensor needs scalar scale

    def test_per_channel(self):
        qp = QuantParams(scale=[0.1, 0.2, 0.3], zero_point=0.0, bits=8,
                         signed=True, axis=0)
        assert qp.axis == 0
        assert qp.scale.shape == (3,)


class TestQuantizeDequantize:
    def test_equation1_rounding_and_clamping(self):
        qp = QuantParams(scale=1.0, zero_point=0.0, bits=4, signed=True)
        x = np.array([-100.0, -8.4, -0.5, 0.4, 6.6, 100.0])
        q = quantize(x, qp)
        assert list(q) == [-8, -8, 0, 0, 7, 7]

    def test_zero_point_shift(self):
        qp = QuantParams(scale=0.5, zero_point=4.0, bits=4, signed=False)
        q = quantize(np.array([0.0]), qp)
        assert q[0] == 4  # x/s + z = 0 + 4

    def test_roundtrip_on_grid_points(self):
        qp = QuantParams(scale=0.25, zero_point=0.0, bits=6, signed=True)
        codes = np.arange(qp.qmin, qp.qmax + 1)
        x = dequantize(codes, qp)
        assert np.array_equal(quantize(x, qp), codes)

    def test_fake_quantize_idempotent(self):
        qp = QuantParams(scale=0.1, zero_point=0.0, bits=5, signed=True)
        x = np.random.default_rng(0).normal(size=100)
        once = fake_quantize(x, qp)
        twice = fake_quantize(once, qp)
        assert np.allclose(once, twice)

    def test_per_channel_broadcasting(self):
        qp = QuantParams(scale=[1.0, 0.5], zero_point=0.0, bits=8,
                         signed=True, axis=0)
        x = np.array([[1.0, 2.0], [1.0, 2.0]])
        q = quantize(x, qp)
        assert list(q[0]) == [1, 2]
        assert list(q[1]) == [2, 4]

    def test_codes_fit_declared_bitwidth(self):
        rng = np.random.default_rng(1)
        for bits in range(2, 9):
            qp = QuantParams(scale=0.07, zero_point=0.0, bits=bits,
                             signed=True)
            q = quantize(rng.normal(scale=10, size=1000), qp)
            assert q.min() >= qp.qmin
            assert q.max() <= qp.qmax


class TestQParamsFromRange:
    def test_symmetric_absmax(self):
        qp = qparams_from_range(-2.0, 1.0, 8, signed=True)
        assert float(qp.scale) == pytest.approx(2.0 / 127)
        assert np.all(qp.zero_point == 0)

    def test_degenerate_range_guard(self):
        qp = qparams_from_range(0.0, 0.0, 8, signed=True)
        assert float(qp.scale) > 0

    def test_per_channel_vector(self):
        lo = np.array([-1.0, -2.0])
        hi = np.array([1.0, 2.0])
        qp = qparams_from_range(lo, hi, 8, signed=True, axis=0)
        assert qp.scale.shape == (2,)
        assert qp.scale[1] == pytest.approx(2 * qp.scale[0])


class TestErrorMetrics:
    def test_error_decreases_with_bits(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=2000)
        errors = []
        for bits in (2, 4, 6, 8):
            qp = qparams_from_range(x.min(), x.max(), bits, signed=True)
            errors.append(quantization_error(x, qp))
        assert errors == sorted(errors, reverse=True)

    def test_exact_on_grid(self):
        qp = QuantParams(scale=0.5, zero_point=0.0, bits=4, signed=True)
        x = np.array([-1.0, 0.0, 0.5, 3.0])
        assert quantization_error(x, qp) == pytest.approx(0.0)
