"""Calibration observers for post-training quantization (Section IV-A).

The paper's initialization recipe before QAT:

* **weights**: quantized per-channel, "with scale computed from the absmax
  of the weight tensor" -- :class:`AbsMaxObserver` with a channel axis;
* **activations**: per-tensor, initialized "by averaging the 99.999
  percentile of the activation absolute values for 8 batches" --
  :class:`PercentileObserver`.

Observers accumulate statistics over repeated :meth:`observe` calls and
produce :class:`~repro.quant.affine.QuantParams` on demand.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .affine import QuantError, QuantParams, qparams_from_range

#: The paper's activation calibration percentile.
PAPER_PERCENTILE = 99.999

#: The paper's number of calibration batches.
PAPER_CALIBRATION_BATCHES = 8


class Observer:
    """Base class: accumulate tensor statistics, emit QuantParams."""

    def __init__(self, bits: int, *, signed: bool,
                 axis: Optional[int] = None) -> None:
        self.bits = bits
        self.signed = signed
        self.axis = axis
        self.batches_seen = 0

    def observe(self, x: np.ndarray) -> None:
        raise NotImplementedError

    def quant_params(self) -> QuantParams:
        raise NotImplementedError

    def _require_data(self) -> None:
        if self.batches_seen == 0:
            raise QuantError(
                f"{type(self).__name__} has observed no data yet"
            )

    def _reduce_axes(self, ndim: int) -> tuple[int, ...]:
        """Axes to reduce over: all but the channel axis (if any)."""
        if self.axis is None:
            return tuple(range(ndim))
        return tuple(i for i in range(ndim) if i != self.axis)


class AbsMaxObserver(Observer):
    """Symmetric absmax calibration -- the paper's weight scheme.

    With ``axis`` set, tracks one absmax per output channel ("weights are
    quantized per-channel with scale computed from the absmax of the
    weight tensor").
    """

    def __init__(self, bits: int, *, signed: bool = True,
                 axis: Optional[int] = None) -> None:
        super().__init__(bits, signed=signed, axis=axis)
        self._absmax: np.ndarray | None = None

    def observe(self, x: np.ndarray) -> None:
        x = np.asarray(x, dtype=np.float64)
        axes = self._reduce_axes(x.ndim)
        current = np.abs(x).max(axis=axes)
        if self._absmax is None:
            self._absmax = current
        else:
            self._absmax = np.maximum(self._absmax, current)
        self.batches_seen += 1

    def quant_params(self) -> QuantParams:
        self._require_data()
        return qparams_from_range(
            -self._absmax, self._absmax, self.bits,
            signed=self.signed, axis=self.axis,
        )


class PercentileObserver(Observer):
    """Percentile-of-absolute-values calibration -- the paper's activation
    initialization (99.999 percentile averaged over 8 batches).

    Averaging (rather than max-reducing) follows the paper's wording
    "averaging the 99.999 percentile ... for 8 batches".
    """

    def __init__(self, bits: int, *, signed: bool = False,
                 percentile: float = PAPER_PERCENTILE,
                 axis: Optional[int] = None) -> None:
        super().__init__(bits, signed=signed, axis=axis)
        if not 0 < percentile <= 100:
            raise QuantError(f"percentile out of range: {percentile}")
        self.percentile = percentile
        self._sum: np.ndarray | None = None

    def observe(self, x: np.ndarray) -> None:
        x = np.abs(np.asarray(x, dtype=np.float64))
        if self.axis is None:
            value = np.percentile(x, self.percentile)
        else:
            moved = np.moveaxis(x, self.axis, 0).reshape(x.shape[self.axis],
                                                         -1)
            value = np.percentile(moved, self.percentile, axis=1)
        self._sum = value if self._sum is None else self._sum + value
        self.batches_seen += 1

    def quant_params(self) -> QuantParams:
        self._require_data()
        absmax = self._sum / self.batches_seen
        return qparams_from_range(
            -np.asarray(absmax), np.asarray(absmax), self.bits,
            signed=self.signed, axis=self.axis,
        )
