"""Property-based tests (hypothesis) for the quantization substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.quant.affine import (
    QuantParams,
    dequantize,
    fake_quantize,
    qparams_from_range,
    quantize,
)

bits_strategy = st.integers(min_value=2, max_value=8)
finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


@st.composite
def tensor_and_params(draw):
    bits = draw(bits_strategy)
    signed = draw(st.booleans())
    scale = draw(st.floats(min_value=1e-6, max_value=1e3))
    shape = draw(st.integers(min_value=1, max_value=50))
    x = draw(hnp.arrays(np.float64, shape,
                        elements=finite_floats))
    qp = QuantParams(scale=scale, zero_point=0.0, bits=bits,
                     signed=signed)
    return x, qp


@given(tensor_and_params())
@settings(max_examples=200, deadline=None)
def test_codes_always_in_grid(case):
    """Quantized codes never escape the Equation-2 range."""
    x, qp = case
    q = quantize(x, qp)
    assert q.min() >= qp.qmin
    assert q.max() <= qp.qmax


@given(tensor_and_params())
@settings(max_examples=200, deadline=None)
def test_fake_quantize_idempotent(case):
    """quantize(dequantize(quantize(x))) == quantize(x)."""
    x, qp = case
    once = fake_quantize(x, qp)
    twice = fake_quantize(once, qp)
    assert np.allclose(once, twice, atol=1e-12)


@given(tensor_and_params())
@settings(max_examples=200, deadline=None)
def test_error_bounded_by_half_step_inside_range(case):
    """|x - fq(x)| <= scale/2 wherever x is inside the clip range."""
    x, qp = case
    fq = fake_quantize(x, qp)
    scale = float(qp.scale)
    lo = qp.qmin * scale
    hi = qp.qmax * scale
    inside = (x >= lo) & (x <= hi)
    err = np.abs(x - fq)[inside]
    assert (err <= scale / 2 + 1e-9).all()


@given(tensor_and_params())
@settings(max_examples=150, deadline=None)
def test_dequantize_quantize_roundtrip(case):
    """Codes survive a dequantize/quantize round trip exactly."""
    x, qp = case
    q = quantize(x, qp)
    assert np.array_equal(quantize(dequantize(q, qp), qp), q)


@given(
    st.floats(min_value=-100, max_value=0),
    st.floats(min_value=0, max_value=100),
    bits_strategy,
)
@settings(max_examples=200, deadline=None)
def test_qparams_cover_requested_range(lo, hi, bits):
    """The derived grid represents both endpoints within one step."""
    qp = qparams_from_range(lo, hi, bits, signed=True)
    scale = float(qp.scale)
    for endpoint in (lo, hi):
        fq = float(fake_quantize(np.array([endpoint]), qp)[0])
        assert abs(fq - endpoint) <= scale * 1.01


@given(bits_strategy, st.floats(min_value=0.5, max_value=100.0))
@settings(max_examples=100, deadline=None)
def test_more_bits_less_error(bits, absmax):
    """For the same range, error shrinks monotonically with bits."""
    if bits == 8:
        return
    rng = np.random.default_rng(0)
    x = rng.uniform(-absmax, absmax, size=256)
    qp_low = qparams_from_range(-absmax, absmax, bits, signed=True)
    qp_high = qparams_from_range(-absmax, absmax, bits + 1, signed=True)
    err_low = np.abs(x - fake_quantize(x, qp_low)).mean()
    err_high = np.abs(x - fake_quantize(x, qp_high)).mean()
    assert err_high <= err_low + 1e-12
