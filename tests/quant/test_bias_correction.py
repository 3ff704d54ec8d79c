"""Tests for the post-training bias correction of quantized weights."""

import numpy as np

from repro.quant.affine import QuantParams, qparams_from_range
from repro.quant.bias_correction import (
    apply_bias_correction,
    bias_correction_conv,
    bias_correction_linear,
    weight_quantization_error,
)


def _qparams_for(x, bits, signed, axis=None):
    x = np.asarray(x, dtype=np.float64)
    if axis is None:
        return qparams_from_range(x.min(), x.max(), bits, signed=signed)
    axes = tuple(i for i in range(x.ndim) if i != axis)
    amax = np.abs(x).max(axis=axes)
    return qparams_from_range(-amax, amax, bits, signed=signed, axis=axis)


class TestBiasCorrection:
    def test_weight_error_zero_on_grid(self):
        qp = QuantParams(scale=0.5, zero_point=0.0, bits=4, signed=True)
        w = np.array([[0.5, -1.0], [1.5, 0.0]])
        assert np.allclose(weight_quantization_error(w, qp), 0.0)

    def test_linear_correction_reduces_output_bias(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(6, 12))
        x = np.abs(rng.normal(size=(64, 12))) + 0.5  # biased inputs
        qp = _qparams_for(w, 3, signed=True, axis=0)
        corr = bias_correction_linear(w, qp, x)
        from repro.quant.affine import fake_quantize
        w_q = fake_quantize(w, qp)
        bias = np.zeros(6)
        y_raw = x @ w_q.T + bias
        y_fix = x @ w_q.T + apply_bias_correction(bias, corr)
        y_true = x @ w.T
        raw_bias = np.abs((y_raw - y_true).mean(axis=0))
        fix_bias = np.abs((y_fix - y_true).mean(axis=0))
        assert fix_bias.mean() < raw_bias.mean()

    def test_conv_correction_shape(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(8, 3, 3, 3))
        x = rng.normal(size=(4, 3, 8, 8)) + 1.0
        qp = _qparams_for(w, 3, signed=True, axis=0)
        corr = bias_correction_conv(w, qp, x)
        assert corr.shape == (8,)

    def test_clip_zero_disables(self):
        corr = np.array([5.0, -3.0])
        out = apply_bias_correction(np.zeros(2), corr, clip=0.0)
        assert np.allclose(out, 0.0)

    def test_none_bias(self):
        out = apply_bias_correction(None, np.array([1.0]))
        assert np.allclose(out, [-1.0])
