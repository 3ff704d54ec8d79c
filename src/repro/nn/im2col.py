"""im2col / im2row lowering of convolutions to GEMM (Section II-A).

The paper computes convolutions with the GEMM-based approach: "each row of
A is composed of the flattened input values that contribute to that pixel
... while each column of B corresponds to flattened parameters computing a
single output pixel".  These helpers produce exactly that mapping:

* :func:`im2row` builds the (N*OH*OW, C*KH*KW) activation matrix A;
* :func:`weight_matrix` flattens the filters into the (C*KH*KW, F) B;
* :func:`row2im` is the scatter-add inverse used by conv backward;
* :func:`channels_last_order` maps A's columns to the (KH, KW, C) order
  a channels-last lowering produces.

All functions take NCHW activations and OIHW weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConvGeometry:
    """Shape bookkeeping for one convolution lowering."""

    batch: int
    in_channels: int
    in_h: int
    in_w: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int
    padding: int
    groups: int = 1

    @property
    def out_h(self) -> int:
        return (self.in_h + 2 * self.padding - self.kernel_h) \
            // self.stride + 1

    @property
    def out_w(self) -> int:
        return (self.in_w + 2 * self.padding - self.kernel_w) \
            // self.stride + 1

    @property
    def gemm_m(self) -> int:
        """Rows of the A matrix: output pixels across the batch."""
        return self.batch * self.out_h * self.out_w

    @property
    def gemm_k(self) -> int:
        """Inner dimension: receptive-field size (per group)."""
        return (self.in_channels // self.groups) * self.kernel_h \
            * self.kernel_w

    @property
    def gemm_n(self) -> int:
        """Columns of the B matrix: output channels (per group)."""
        return self.out_channels // self.groups

    @property
    def macs(self) -> int:
        """Multiply-accumulates of the convolution."""
        return self.groups * self.gemm_m * self.gemm_k * self.gemm_n


def conv_geometry(
    x_shape: tuple[int, int, int, int],
    w_shape: tuple[int, int, int, int],
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> ConvGeometry:
    """Resolve the GEMM geometry of a conv given NCHW/OIHW shapes."""
    n, c, h, w = x_shape
    f, c_per_group, kh, kw = w_shape
    if c != c_per_group * groups:
        raise ValueError(
            f"channel mismatch: input {c}, weight {c_per_group} x "
            f"groups {groups}"
        )
    if f % groups:
        raise ValueError(f"out channels {f} not divisible by groups {groups}")
    return ConvGeometry(
        batch=n, in_channels=c, in_h=h, in_w=w, out_channels=f,
        kernel_h=kh, kernel_w=kw, stride=stride, padding=padding,
        groups=groups,
    )


def _padded(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding),
                      (padding, padding)))


def im2row(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Lower NCHW activations to the GEMM A matrix (im2row layout).

    Output shape: ``(N * OH * OW, C * KH * KW)`` -- one row per output
    pixel, unit-stride over the receptive field, channel-major.
    """
    n, c, h, w = x.shape
    xp = _padded(x, padding)
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, oh, ow, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    # (n, oh, ow, c, kh, kw) -> rows are output pixels.
    rows = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow,
                                                       c * kh * kw)
    return np.ascontiguousarray(rows)


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Transpose layout: ``(C * KH * KW, N * OH * OW)`` (classic im2col)."""
    return im2row(x, kh, kw, stride, padding).T


def row2im(
    rows: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Scatter-add inverse of :func:`im2row` (the conv backward w.r.t. x).

    Because im2row duplicates overlapping pixels, the inverse accumulates
    every contribution back into its source location.
    """
    n, c, h, w = x_shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    cols = rows.reshape(n, oh, ow, c, kh, kw)
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding),
                  dtype=rows.dtype)
    for i in range(kh):
        h_end = i + stride * oh
        for j in range(kw):
            w_end = j + stride * ow
            xp[:, :, i:h_end:stride, j:w_end:stride] += \
                cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    if padding:
        return xp[:, :, padding:-padding, padding:-padding]
    return xp


def weight_matrix(w: np.ndarray) -> np.ndarray:
    """Flatten OIHW filters into the GEMM B matrix (C*KH*KW, F)."""
    f = w.shape[0]
    return w.reshape(f, -1).T


#: The two K orders of a lowered conv's A columns (and B rows): the
#: ``(C, KH, KW)`` order :func:`im2row` produces, and the ``(KH, KW, C)``
#: order a channels-last activation yields (:func:`channels_last_order`).
K_ORDER_IM2ROW = "c,kh,kw"
K_ORDER_CHANNELS_LAST = "kh,kw,c"


def channels_last_order(c: int, kh: int, kw: int) -> np.ndarray:
    """Column permutation from :func:`im2row`'s ``(C, KH, KW)`` K order to
    ``(KH, KW, C)``: ``im2row(x)[:, perm]`` lists each receptive field
    tap by tap, every tap a contiguous run of channels (the order a
    channels-last activation yields).  Apply the same ``perm`` to the
    rows of :func:`weight_matrix` to keep the product unchanged.
    """
    return np.arange(c * kh * kw).reshape(c, kh, kw).transpose(1, 2, 0) \
        .ravel()


def rows_to_nchw(
    y: np.ndarray, batch: int, out_h: int, out_w: int
) -> np.ndarray:
    """Reshape the GEMM output (N*OH*OW, F) back to NCHW."""
    f = y.shape[1]
    return y.reshape(batch, out_h, out_w, f).transpose(0, 3, 1, 2)


def nchw_to_rows(y: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rows_to_nchw` (used by conv backward)."""
    n, f, oh, ow = y.shape
    return y.transpose(0, 2, 3, 1).reshape(n * oh * ow, f)


def im2row_duplication_factor(geo: ConvGeometry) -> float:
    """Memory blow-up of an explicit im2row (paper Section II-A).

    "A direct implementation of im2col incurs a nontrivial overhead in
    terms of memory and bandwidth, because activations are duplicated
    across A" -- the factor is the A-matrix volume over the input volume.
    Modern implicit schemes (refs [22], [48], [72], [79]) remove it,
    which is why the paper "only focuses on the compute aspect of GEMM";
    this helper quantifies what those schemes save.  The compiled plan's
    kernel-row lowering (``repro.runtime.plan._ConvLowering.panel``,
    stride-1 single-group fast-path convs) is one such scheme: it copies
    each padded input row ``KW`` times instead of ``KH*KW``.
    """
    a_elements = geo.gemm_m * geo.gemm_k * geo.groups
    input_elements = geo.batch * geo.in_channels * geo.in_h * geo.in_w
    return a_elements / input_elements
