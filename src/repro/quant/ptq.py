"""Post-training quantization (paper Section II-A).

The paper contrasts PTQ with QAT: "PTQ starts from a pre-trained model in
floating-point, and relies on a small amount of calibration to determine
appropriate values for scales and zero-points ... is effective at higher
precisions like 7- and 8-bit", while QAT "can scale down to narrower data
sizes".  This module implements the full PTQ flow on our model zoo:

1. run calibration batches through the float model, observing each quant
   layer's input with the paper's percentile observer;
2. set weight scales per-channel (absmax) and activation scales from the
   observers;
3. optionally apply bias correction (Section IV-A initialization);
4. evaluate -- no retraining.

The PTQ-vs-QAT crossover (PTQ fine at 8-bit, collapsing below ~5 bits
where QAT survives) is exercised in the tests and benchmarks, reproducing
the rationale for the paper's choice of QAT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nn.data import Dataset
from repro.nn.layers import Module, QuantConv2d, QuantLinear

from .bias_correction import (
    apply_bias_correction,
    bias_correction_conv,
    bias_correction_linear,
    weight_quantization_error,
)
from .observers import PAPER_CALIBRATION_BATCHES
from .qat import (
    calibrate_activations,
    evaluate,
    observe_layer_inputs,
    quant_layers,
)


@dataclass
class PtqReport:
    """Outcome of one PTQ pass."""

    bits: int
    accuracy: float
    calibrated_layers: int
    bias_corrected_layers: int


def apply_bias_correction_to_model(
    model: Module, dataset: Dataset, *,
    batch_size: int = 32, batches: int = PAPER_CALIBRATION_BATCHES,
    clip: Optional[float] = None,
) -> int:
    """Fold the empirical bias correction into every quant layer's bias.

    Returns the number of corrected layers.  ``clip=0`` disables the
    correction (the paper's VGG-16 exception).
    """
    from repro.nn.functional_quant import weight_absmax_scale
    from .affine import QuantParams

    captured: dict[int, list[np.ndarray]] = {
        id(layer): [] for layer in quant_layers(model)}

    def capture(layer: Module, x: np.ndarray) -> None:
        if len(captured[id(layer)]) < batches:
            captured[id(layer)].append(x.copy())

    observe_layer_inputs(model, dataset, capture,
                         batch_size=batch_size, batches=batches)
    inputs = {key: np.concatenate(chunks, axis=0)
              for key, chunks in captured.items() if chunks}
    corrected = 0
    for layer in quant_layers(model):
        if layer.spec.weight_bits is None or layer.bias is None:
            continue
        x = inputs.get(id(layer))
        if x is None:
            continue
        w = layer.weight.data
        scale = weight_absmax_scale(w, layer.spec.weight_bits)
        qp = QuantParams(scale=scale, zero_point=0.0,
                         bits=layer.spec.weight_bits, signed=True, axis=0)
        if isinstance(layer, QuantConv2d):
            correction = bias_correction_conv(w, qp, x)
        elif isinstance(layer, QuantLinear):
            correction = bias_correction_linear(w, qp, x)
        else:  # pragma: no cover - registry guarded
            continue
        layer.bias.data = apply_bias_correction(layer.bias.data,
                                                correction, clip=clip)
        corrected += 1
    return corrected


def post_training_quantize(
    model: Module,
    calibration: Dataset,
    validation: Dataset,
    *,
    batch_size: int = 32,
    batches: int = PAPER_CALIBRATION_BATCHES,
    bias_correction: bool = True,
) -> PtqReport:
    """The complete PTQ pipeline: calibrate, correct, evaluate.

    The model's quant layers must already carry the target
    :class:`~repro.nn.layers.LayerQuantSpec`; use
    :func:`repro.quant.qat.set_model_bits` to retarget first.
    """
    layers = quant_layers(model)
    if not layers:
        raise ValueError("model has no quantization-aware layers")
    calibrate_activations(model, calibration, batch_size=batch_size,
                          batches=batches)
    corrected = 0
    if bias_correction:
        corrected = apply_bias_correction_to_model(
            model, calibration, batch_size=batch_size, batches=batches,
        )
    accuracy = evaluate(model, validation)
    bits = min(
        (l.spec.weight_bits for l in layers
         if l.spec.weight_bits is not None),
        default=0,
    )
    return PtqReport(
        bits=bits,
        accuracy=accuracy,
        calibrated_layers=len(layers),
        bias_corrected_layers=corrected,
    )


def layer_quantization_snr(model: Module) -> dict[str, float]:
    """Per-layer weight signal-to-quantization-noise ratio (dB).

    A PTQ diagnostic: layers whose SQNR drops below ~10 dB are the ones
    that need QAT at the configured bitwidth.
    """
    from repro.nn.functional_quant import weight_absmax_scale
    from .affine import QuantParams

    out: dict[str, float] = {}
    for idx, layer in enumerate(quant_layers(model)):
        if layer.spec.weight_bits is None:
            continue
        w = layer.weight.data
        scale = weight_absmax_scale(w, layer.spec.weight_bits)
        qp = QuantParams(scale=scale, zero_point=0.0,
                         bits=layer.spec.weight_bits, signed=True, axis=0)
        err = weight_quantization_error(w, qp)
        signal = float((w ** 2).mean())
        noise = float((err ** 2).mean()) + 1e-30
        out[f"layer{idx}"] = 10 * np.log10(signal / noise)
    return out
