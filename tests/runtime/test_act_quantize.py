"""The plan's three-pass activation quantizer against ``quantize``.

``_ActQuantizer`` drops :func:`repro.quant.affine.quantize`'s
zero-point add (every plan quantizer has zero-point 0) and rounds with
``np.rint``.  The add only turned an exact -0.0 quotient into +0.0, so
the integer codes must stay equal.  The inputs below hit each place a
wrong rounding or a wrong clip would show: signed zeros, exact half-way
ties and values beyond both ends of the code range.  That a plan fed
-0.0 inputs stays byte-identical to the numpy-backend plan, whose int64
codes carry no sign of zero, is a row of ``test_plan_matrix.py``.
"""

import numpy as np
import pytest

from repro.core.binseg import value_range
from repro.quant.affine import QuantParams, quantize
from repro.runtime.plan import _ActQuantizer

_BITS = [2, 4, 8]
#: A power of two keeps ``(k + 0.5) * scale / scale`` an exact tie; the
#: other scale exercises a quotient that is rounded before ``rint``.
_SCALES = [0.25, 0.0371]


def _probe(bits, signed, scale):
    """Signed zeros, every exact tie across the code range and one step
    past it, and values far beyond ``qmin``/``qmax``."""
    qmin, qmax = value_range(bits, signed)
    ks = np.arange(qmin - 2, qmax + 2)
    ties = (ks + 0.5) * scale
    beyond = np.array([qmin - 1e3, qmin - 0.5, qmax + 0.5, qmax + 1e3])
    tiny = np.array([-0.49, -1e-300, 1e-300, 0.49]) * scale
    return np.concatenate([[0.0, -0.0], ties, -ties, beyond * scale, tiny])


@pytest.mark.parametrize("scale", _SCALES)
@pytest.mark.parametrize("signed", [True, False])
@pytest.mark.parametrize("bits", _BITS)
def test_codes_equal_quantize(bits, signed, scale):
    qp = QuantParams(scale=scale, zero_point=0.0, bits=bits, signed=signed)
    x = _probe(bits, signed, scale)
    want = quantize(x, qp)
    assert want.min() == qp.qmin and want.max() == qp.qmax
    for dtype in (np.float32, np.int64):
        quant = _ActQuantizer(qp, dtype)
        got = quant(x)
        assert got.dtype == dtype
        assert np.array_equal(got.astype(np.int64), want)
        out = np.full(x.shape, 99, dtype=dtype)
        quant.into(x, out)
        assert np.array_equal(out.astype(np.int64), want)


def test_strided_nchw_input_into_channels_last_buffer():
    """A conv step quantizes a strided NCHW view into an NHWC buffer."""
    qp = QuantParams(scale=0.0371, zero_point=0.0, bits=4, signed=True)
    x = np.random.default_rng(0).standard_normal((2, 3, 13, 11))
    x[:, :, ::2, ::3] *= -0.0
    grid = x[:, :, ::2, ::3]
    buf = np.zeros((2, 7, 4, 3), dtype=np.float32)
    _ActQuantizer(qp, np.float32).into(grid, buf.transpose(0, 3, 1, 2))
    assert np.array_equal(buf.transpose(0, 3, 1, 2).astype(np.int64),
                          quantize(grid, qp))


def test_nonzero_zero_point_rejected():
    qp = QuantParams(scale=0.1, zero_point=3.0, bits=8, signed=False)
    with pytest.raises(ValueError, match="zero-point 0"):
        _ActQuantizer(qp, np.int64)
