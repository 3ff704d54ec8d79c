"""The compiled conv lowering against ``im2row``, in both K orders."""

import itertools

import numpy as np
import pytest

from repro.nn.im2col import (
    K_ORDER_CHANNELS_LAST,
    K_ORDER_IM2ROW,
    channels_last_order,
    im2row,
)
from repro.runtime.plan import _ConvLowering

#: Odd spatial sizes, large enough for a 7x7 kernel without padding.
_N, _C, _H, _W = 2, 4, 9, 11


def _fill(low, x, stride):
    """What a conv step writes: the whole input, or for a direct
    lowering only the pixels its 1x1 windows read."""
    low.interior[...] = x[:, :, ::stride, ::stride] if low.direct else x


def _lowered(x, kernel, stride, padding, groups, dtype, k_order):
    direct = kernel == 1 and padding == 0 and groups == 1
    low = _ConvLowering(x.shape, kernel, kernel, stride, padding, groups,
                        dtype, k_order, direct=direct)
    _fill(low, x, stride)
    return low, low.rows()


def _expected(x, kernel, stride, padding, groups, k_order):
    cpg = x.shape[1] // groups
    refs = [im2row(x[:, g * cpg:(g + 1) * cpg], kernel, kernel, stride,
                   padding) for g in range(groups)]
    if k_order == K_ORDER_CHANNELS_LAST:
        perm = channels_last_order(cpg, kernel, kernel)
        refs = [ref[:, perm] for ref in refs]
    return np.stack(refs)


@pytest.mark.parametrize("dtype", [np.float32, np.int64, np.float64])
@pytest.mark.parametrize("groups", [1, 2, _C])
@pytest.mark.parametrize("kernel", [1, 3, 5, 7])
@pytest.mark.parametrize("stride,padding",
                         list(itertools.product([1, 2], [0, 1, 2])))
def test_rows_equal_im2row(stride, padding, kernel, groups, dtype):
    rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
    for k_order in (K_ORDER_IM2ROW, K_ORDER_CHANNELS_LAST):
        low = None
        for _ in range(2):  # a refill must not leave stale values behind
            x = rng.integers(-100, 100, size=(_N, _C, _H, _W)).astype(dtype)
            if low is None:
                low, rows = _lowered(x, kernel, stride, padding, groups,
                                     dtype, k_order)
            else:
                _fill(low, x, stride)
                rows = low.rows()
            want = _expected(x, kernel, stride, padding, groups, k_order)
            assert rows.dtype == dtype
            assert rows.shape == want.shape == (groups, low.m,
                                                _C // groups * kernel ** 2)
            assert all(rows[g].flags.c_contiguous for g in range(groups))
            assert np.array_equal(rows, want)


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_direct_rows_are_the_buffer(stride):
    """A direct lowering's rows are its buffer, not a copy, holding
    exactly the strided read grid."""
    x = np.arange(_N * _C * _H * _W, dtype=np.float32).reshape(
        _N, _C, _H, _W)
    low, rows = _lowered(x, 1, stride, 0, 1, np.float32, K_ORDER_IM2ROW)
    assert low.direct and not low.kernel_rows
    assert np.shares_memory(rows, low._buf)
    assert low._buf.shape == (_N, low.out_h, low.out_w, _C)
    assert np.array_equal(rows[0], im2row(x, 1, 1, stride, 0))


def test_orders_coincide_for_one_channel_per_group():
    """Depthwise: with one channel per group both orders are the same."""
    assert np.array_equal(channels_last_order(1, 3, 3), np.arange(9))


def test_halo_stays_zero():
    x = np.ones((1, 3, 4, 5))
    low, rows = _lowered(x, 3, 1, 2, 1, np.float64, K_ORDER_IM2ROW)
    assert rows.shape == (1, 1 * 6 * 7, 27)
    p = 2
    buf = low._buf
    assert buf.shape == (1, 8, 9, 3)
    interior = np.zeros(buf.shape, dtype=bool)
    interior[:, p:p + 4, p:p + 5, :] = True
    assert not buf[~interior].any()
    assert (buf[interior] == 1).all()


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("kernel", [1, 3, 5, 7])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_kernel_row_taps_are_im2row_column_ranges(kernel, padding, n):
    """Tap ``kh``'s view of the panel is columns ``kh*KW*C`` to
    ``(kh+1)*KW*C`` of the channels-last im2row rows, sample by sample,
    and the panel holds exactly the halo buffer's values."""
    rng = np.random.default_rng(kernel * 10 + padding + n)
    x = rng.integers(-100, 100, size=(n, _C, _H, _W)).astype(np.float32)
    low = _ConvLowering(x.shape, kernel, kernel, 1, padding, 1, np.float32,
                        K_ORDER_CHANNELS_LAST, kernel_rows=True)
    low.interior[...] = x
    panel = low.panel()
    assert panel.shape == (n, (_H + 2 * padding) * low.out_w, kernel * _C)
    assert np.array_equal(np.unique(panel), np.unique(low._buf))
    want = _expected(x, kernel, 1, padding, 1, K_ORDER_CHANNELS_LAST)[0]
    width = kernel * _C
    views = low.tap_views(panel)
    assert len(views) == kernel
    for kh, view in enumerate(views):
        if view.ndim == 3:
            assert all(view[i].flags.c_contiguous for i in range(n))
        got = view.reshape(low.m, width)
        assert np.array_equal(got, want[:, kh * width:(kh + 1) * width])
