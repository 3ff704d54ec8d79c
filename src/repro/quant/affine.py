"""Uniform affine integer quantization (paper Section II-A, Eq. 1-2).

Implements exactly the quantizer family the paper accelerates::

    y = q(x) = clamp(round(x / s + z), y_min, y_max)            (Eq. 1)

    [y_min, y_max] = [0, 2**n - 1]                (unsigned)
                     [-2**(n-1), 2**(n-1) - 1]    (signed)      (Eq. 2)

Variants supported, matching the paper's terminology:

* **zero-point**: :class:`QuantParams` carries any z, and
  :func:`qparams_from_range` derives the symmetric grid (z = 0);
* **per-tensor** (scalar s) vs **per-channel** (1-D s along an axis);
* any bitwidth from 2 to 8.

The paper's QAT setup (Section IV-A) uses per-channel absmax weights and
per-tensor activations, both with zero-point 0; those presets are in
:mod:`repro.quant.observers`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.binseg import value_range
from repro.core.errors import ReproError


class QuantError(ReproError, ValueError):
    """Raised on malformed quantization parameters."""


@dataclass(frozen=True)
class QuantParams:
    """Resolved quantization parameters for one tensor.

    ``scale`` and ``zero_point`` are scalars for per-tensor quantization,
    or 1-D arrays along ``axis`` for per-channel quantization.  Scales and
    zero-points stay floating-point, as the paper does ("quantization
    scales and biases are left in floating-point").
    """

    scale: np.ndarray
    zero_point: np.ndarray
    bits: int
    signed: bool
    axis: Optional[int] = None

    def __post_init__(self) -> None:
        scale = np.asarray(self.scale, dtype=np.float64)
        zp = np.asarray(self.zero_point, dtype=np.float64)
        if not 2 <= self.bits <= 8:
            raise QuantError(f"bits must be in [2, 8], got {self.bits}")
        if np.any(scale <= 0):
            raise QuantError("scales must be strictly positive")
        if self.axis is None:
            if scale.size != 1:
                raise QuantError(
                    "per-tensor quantization needs a scalar scale"
                )
            scale = scale.reshape(())
        else:
            scale = np.atleast_1d(scale)
        if scale.shape != zp.shape and zp.size != 1:
            raise QuantError("zero_point shape must match scale (or scalar)")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(
            self, "zero_point", np.broadcast_to(zp, scale.shape).copy()
        )

    @property
    def qmin(self) -> int:
        return value_range(self.bits, self.signed)[0]

    @property
    def qmax(self) -> int:
        return value_range(self.bits, self.signed)[1]

    def _expand(self, values: np.ndarray, ndim: int) -> np.ndarray:
        """Reshape per-channel vectors for broadcasting against data."""
        if self.axis is None:
            return values.reshape(())
        shape = [1] * ndim
        shape[self.axis] = values.size
        return values.reshape(shape)


def quantize(x: np.ndarray, qp: QuantParams) -> np.ndarray:
    """Equation 1: real tensor -> integer codes (int64)."""
    x = np.asarray(x, dtype=np.float64)
    scale = qp._expand(qp.scale, x.ndim)
    zp = qp._expand(qp.zero_point, x.ndim)
    q = np.round(x / scale + zp)
    return np.clip(q, qp.qmin, qp.qmax).astype(np.int64)


def dequantize(q: np.ndarray, qp: QuantParams) -> np.ndarray:
    """Inverse mapping: integer codes -> real values."""
    q = np.asarray(q, dtype=np.float64)
    scale = qp._expand(qp.scale, q.ndim)
    zp = qp._expand(qp.zero_point, q.ndim)
    return (q - zp) * scale


def fake_quantize(x: np.ndarray, qp: QuantParams) -> np.ndarray:
    """Quantize-dequantize round trip (the QAT forward pass)."""
    return dequantize(quantize(x, qp), qp)


def quantization_error(x: np.ndarray, qp: QuantParams) -> float:
    """RMS error introduced by quantizing ``x`` (diagnostics)."""
    x = np.asarray(x, dtype=np.float64)
    err = x - fake_quantize(x, qp)
    return float(np.sqrt(np.mean(err * err)))


def qparams_from_range(
    lo: np.ndarray,
    hi: np.ndarray,
    bits: int,
    *,
    signed: bool,
    axis: Optional[int] = None,
    eps: float = 1e-12,
) -> QuantParams:
    """Derive the symmetric grid covering the real range ``[lo, hi]``.

    The zero-point is 0 and the scale covers ``max(|lo|, |hi|)``
    (absmax), the paper's scheme for weights and activations alike.
    """
    absmax = np.maximum(np.abs(np.asarray(lo, dtype=np.float64)),
                        np.abs(np.asarray(hi, dtype=np.float64)))
    scale = np.maximum(absmax / value_range(bits, signed)[1], eps)
    return QuantParams(scale=scale, zero_point=np.zeros_like(scale),
                       bits=bits, signed=signed, axis=axis)
