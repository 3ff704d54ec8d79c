"""Calibration observers for post-training quantization (Section IV-A).

The paper's initialization recipe before QAT:

* **weights**: quantized per-channel, "with scale computed from the absmax
  of the weight tensor" -- :class:`AbsMaxObserver` with a channel axis;
* **activations**: per-tensor, initialized "by averaging the 99.999
  percentile of the activation absolute values for 8 batches" --
  :class:`PercentileObserver`;
* a generic :class:`MinMaxObserver` is provided for asymmetric schemes.

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


class MinMaxObserver(Observer):
    """Tracks running min/max; emits an asymmetric affine grid."""

    def __init__(self, bits: int, *, signed: bool = False,
                 axis: Optional[int] = None) -> None:
        super().__init__(bits, signed=signed, axis=axis)
        self._lo: np.ndarray | None = None
        self._hi: np.ndarray | None = None

    def observe(self, x: np.ndarray) -> None:
        x = np.asarray(x, dtype=np.float64)
        axes = self._reduce_axes(x.ndim)
        lo = x.min(axis=axes)
        hi = x.max(axis=axes)
        if self._lo is None:
            self._lo, self._hi = lo, hi
        else:
            self._lo = np.minimum(self._lo, lo)
            self._hi = np.maximum(self._hi, hi)
        self.batches_seen += 1

    def quant_params(self) -> QuantParams:
        self._require_data()
        return qparams_from_range(
            self._lo, self._hi, self.bits,
            signed=self.signed, symmetric=False, axis=self.axis,
        )


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
            signed=self.signed, symmetric=True, axis=self.axis,
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
            signed=self.signed, symmetric=True, axis=self.axis,
        )


class KlDivergenceObserver(Observer):
    """Entropy (KL-divergence) calibration, TensorRT style.

    Builds a histogram of absolute values and picks the clip threshold
    whose quantized distribution minimizes the KL divergence against the
    original -- a stronger PTQ calibrator than percentile clipping for
    heavy-tailed activations.  Per-tensor only.
    """

    def __init__(self, bits: int, *, signed: bool = False,
                 n_bins: int = 2048) -> None:
        super().__init__(bits, signed=signed, axis=None)
        if n_bins < 16:
            raise QuantError(f"need at least 16 bins, got {n_bins}")
        self.n_bins = n_bins
        self._hist: np.ndarray | None = None
        self._edge = 0.0

    def observe(self, x: np.ndarray) -> None:
        x = np.abs(np.asarray(x, dtype=np.float64)).ravel()
        top = float(x.max()) if x.size else 0.0
        if self._hist is None:
            self._edge = max(top, 1e-12)
            self._hist = np.histogram(
                x, bins=self.n_bins, range=(0.0, self._edge)
            )[0].astype(np.float64)
        else:
            if top > self._edge:
                # Re-bin the running histogram onto the wider range.
                factor = top / self._edge
                old_centers = (np.arange(self.n_bins) + 0.5) \
                    * (self._edge / self.n_bins)
                self._edge = top
                new_hist = np.histogram(
                    old_centers, bins=self.n_bins,
                    range=(0.0, self._edge),
                    weights=self._hist,
                )[0]
                self._hist = new_hist
            self._hist += np.histogram(
                x, bins=self.n_bins, range=(0.0, self._edge)
            )[0]
        self.batches_seen += 1

    def _kl_divergence(self, p: np.ndarray, q: np.ndarray) -> float:
        mask = p > 0
        q = np.where(q > 0, q, 1e-12)
        return float((p[mask] * np.log(p[mask] / q[mask])).sum())

    def best_threshold(self) -> float:
        """The clip threshold minimizing the KL divergence."""
        self._require_data()
        levels = (1 << self.bits) - 1 if not self.signed \
            else (1 << (self.bits - 1)) - 1
        levels = max(levels, 2)
        hist = self._hist
        bin_width = self._edge / self.n_bins
        best = (np.inf, self._edge)
        start = max(levels, self.n_bins // 8)
        for i in range(start, self.n_bins + 1, max(1, self.n_bins // 64)):
            p = hist[:i].copy()
            outliers = hist[i:].sum()
            if p.sum() == 0:
                continue
            p[-1] += outliers        # clip mass onto the last bin
            # Quantize the clipped distribution onto `levels` buckets.
            idx = (np.arange(i) * levels // i)
            q_small = np.bincount(idx, weights=hist[:i],
                                  minlength=levels)
            counts = np.bincount(idx, minlength=levels)
            expanded = np.where(
                counts[idx] > 0, q_small[idx] / counts[idx], 0.0
            )
            p_norm = p / p.sum()
            q_norm = expanded / max(expanded.sum(), 1e-12)
            kl = self._kl_divergence(p_norm, q_norm)
            if kl < best[0]:
                best = (kl, i * bin_width)
        return best[1]

    def quant_params(self) -> QuantParams:
        threshold = self.best_threshold()
        return qparams_from_range(
            -threshold, threshold, self.bits,
            signed=self.signed, symmetric=True, axis=None,
        )
