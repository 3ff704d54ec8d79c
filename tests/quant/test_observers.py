"""Unit tests for calibration observers."""

import numpy as np
import pytest

from repro.nn.functional_quant import weight_absmax_scale
from repro.quant.affine import QuantError
from repro.quant.observers import (
    AbsMaxObserver,
    PercentileObserver,
)


class TestAbsMaxObserver:
    def test_symmetric_scale(self):
        obs = AbsMaxObserver(4, signed=True)
        obs.observe(np.array([-3.5, 1.0]))
        qp = obs.quant_params()
        assert np.all(qp.zero_point == 0)
        assert float(qp.scale) == pytest.approx(3.5 / 7)

    def test_requires_data(self):
        with pytest.raises(QuantError):
            AbsMaxObserver(8).quant_params()

    def test_per_channel_weights(self):
        # The paper's weight scheme: per-output-channel absmax.
        w = np.zeros((3, 4, 2, 2))
        w[0] += 1.0
        w[1] += 2.0
        w[2] += 4.0
        obs = AbsMaxObserver(8, signed=True, axis=0)
        obs.observe(w)
        qp = obs.quant_params()
        assert qp.scale.shape == (3,)
        assert qp.scale[1] == pytest.approx(2 * qp.scale[0])

    def test_max_accumulates_across_batches(self):
        obs = AbsMaxObserver(8, signed=True)
        obs.observe(np.array([1.0]))
        obs.observe(np.array([-5.0]))
        obs.observe(np.array([2.0]))
        qp = obs.quant_params()
        assert float(qp.scale) == pytest.approx(5.0 / 127)


class TestPercentileObserver:
    def test_ignores_outliers(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=100_000)
        x[0] = 1000.0  # a single wild outlier
        pct = PercentileObserver(8, percentile=99.9)
        amax = AbsMaxObserver(8, signed=True)
        pct.observe(x)
        amax.observe(x)
        assert float(pct.quant_params().scale) < float(
            amax.quant_params().scale
        )

    def test_averages_across_batches(self):
        # Observing [0, 1] then [0, 3] must average the percentiles, not
        # max-reduce them.
        obs = PercentileObserver(8, percentile=100.0)
        obs.observe(np.linspace(0, 1, 100))
        obs.observe(np.linspace(0, 3, 100))
        qp = obs.quant_params()
        assert float(qp.scale) == pytest.approx(2.0 / 255, rel=1e-6)

    def test_invalid_percentile(self):
        with pytest.raises(QuantError):
            PercentileObserver(8, percentile=0.0)
        with pytest.raises(QuantError):
            PercentileObserver(8, percentile=101.0)


class TestPaperPresets:
    """The paper's calibration rules, where every runtime path reads them."""

    def test_weight_observer_is_per_channel_signed(self):
        # One scale per output channel, from the signed 4-bit grid's
        # qmax of 7: the rule weight_absmax_scale implements.
        w = np.random.default_rng(0).standard_normal((3, 2, 3, 3))
        scale = weight_absmax_scale(w, 4)
        assert scale.shape == (3,)
        assert np.allclose(scale, np.abs(w).reshape(3, -1).max(axis=1) / 7)

    def test_activation_observer_defaults(self):
        # calibrate_activations builds this observer per layer.
        obs = PercentileObserver(4)
        assert not obs.signed
        assert obs.axis is None
        assert obs.percentile == 99.999
