"""Stateless operator kernels baked into compiled plans.

:mod:`repro.runtime.plan` builds every non-GEMM step and fused epilogue
from these functions, and the range analyzer's plan-equivalence check
evaluates the same closures on interval endpoints -- one implementation
per op, so there is nothing to drift.

The activation kernels use numerically stable forms: the textbook
``1 / (1 + exp(-x))`` overflows ``exp`` for large-magnitude negative
inputs (a ``RuntimeWarning`` and a spurious intermediate ``inf``), so
:func:`sigmoid` evaluates the branch whose exponent is non-positive on
each side of zero.  For ``x >= 0`` the stable form *is* the textbook
form, so existing outputs are unchanged there.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, overflow-free over the whole float64 range.

    ``exp`` only ever sees a non-positive argument: ``exp(-x)`` where
    ``x >= 0`` and ``exp(x)`` where ``x < 0`` -- both bounded by 1.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish ``x * sigmoid(x)`` via the stable :func:`sigmoid`."""
    x = np.asarray(x, dtype=np.float64)
    return x * sigmoid(x)


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def relu6(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.clip(x, 0.0, 6.0, out=out)


def pool2d(x: np.ndarray, kernel: int, stride: int, reducer) -> np.ndarray:
    """Windowed reduction over NCHW via a zero-copy strided view."""
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, oh, ow, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    return reducer(windows, axis=(-2, -1))


def max_pool2d(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    return pool2d(x, kernel, stride, np.max)


def avg_pool2d(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    return pool2d(x, kernel, stride, np.mean)


def global_avg_pool2d(x: np.ndarray) -> np.ndarray:
    return x.mean(axis=(2, 3))


def flatten(x: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[0], -1)


def channel_scale(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Squeeze-excite gating: NCHW features x (N, C) gates."""
    return x * s[:, :, None, None]


def batchnorm_params(tensors: dict, eps: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Fold BN statistics into per-channel ``(scale, shift)`` NCHW arrays.

    Pure function of the node constants: the engine evaluates it on
    every call, a compiled plan once at compile time -- same inputs,
    same float operations, bitwise-identical arrays either way.
    """
    std = np.sqrt(tensors["running_var"] + eps)
    scale = (tensors["gamma"] / std).reshape(1, -1, 1, 1)
    shift = (tensors["beta"] - tensors["gamma"] * tensors["running_mean"]
             / std).reshape(1, -1, 1, 1)
    return scale, shift


def apply_batchnorm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """``x * scale + shift``; the add runs in place on the product."""
    y = np.multiply(x, scale, out=out)
    return np.add(y, shift, out=y)
