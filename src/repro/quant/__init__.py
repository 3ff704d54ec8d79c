"""Quantization substrate: affine quantizers, observers, PTQ and QAT."""

from .affine import (
    QuantError,
    QuantParams,
    dequantize,
    fake_quantize,
    qparams_from_range,
    quantization_error,
    quantize,
)
from .bias_correction import (
    apply_bias_correction,
    bias_correction_conv,
    bias_correction_linear,
    weight_quantization_error,
)
from .ptq import (
    PtqReport,
    apply_bias_correction_to_model,
    layer_quantization_snr,
    post_training_quantize,
)
from .qat import (
    PAPER_RECIPES,
    QatRecipe,
    TrainHistory,
    calibrate_activations,
    evaluate,
    quant_layers,
    set_model_bits,
    train_qat,
)
from .observers import (
    AbsMaxObserver,
    Observer,
    PAPER_CALIBRATION_BATCHES,
    PAPER_PERCENTILE,
    PercentileObserver,
)

__all__ = [
    "QuantError",
    "QuantParams",
    "dequantize",
    "fake_quantize",
    "qparams_from_range",
    "quantization_error",
    "quantize",
    "apply_bias_correction",
    "bias_correction_conv",
    "bias_correction_linear",
    "weight_quantization_error",
    "PtqReport",
    "apply_bias_correction_to_model",
    "layer_quantization_snr",
    "post_training_quantize",
    "AbsMaxObserver",
    "Observer",
    "PAPER_CALIBRATION_BATCHES",
    "PAPER_PERCENTILE",
    "PercentileObserver",
    "PAPER_RECIPES",
    "QatRecipe",
    "TrainHistory",
    "calibrate_activations",
    "evaluate",
    "quant_layers",
    "set_model_bits",
    "train_qat",
]
