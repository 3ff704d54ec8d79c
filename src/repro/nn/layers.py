"""Neural-network modules: float and quantization-aware layers.

A minimal module system in the PyTorch idiom (the paper trains with
PyTorch + Brevitas): :class:`Module` owns parameters and submodules,
``train()``/``eval()`` toggle mode recursively, and quantized variants
(:class:`QuantConv2d`, :class:`QuantLinear`) insert fake quantization on
weights (per-channel absmax, recomputed from the live weights each step)
and on input activations (per-tensor, scale learned in the log domain) --
the exact scheme of Section IV-A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import functional as F
from .autograd import Tensor
from .functional_quant import (
    fake_quant_learned,
    fake_quant_ste,
    init_log_scale,
    weight_absmax_scale,
)


class Module:
    """Base class: parameter/submodule registry plus train/eval mode."""

    def __init__(self) -> None:
        self._parameters: dict[str, Tensor] = {}
        self._modules: dict[str, "Module"] = {}
        self.training = True

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def parameters(self) -> Iterator[Tensor]:
        for _, p in self.named_parameters():
            yield p

    def named_parameters(self, prefix: str = "") -> Iterator[
            tuple[str, Tensor]]:
        for name, p in self._parameters.items():
            yield f"{prefix}{name}", p
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)


def _kaiming(shape: tuple[int, ...], fan_in: int,
             rng: np.random.Generator) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


_default_rng = np.random.default_rng(0)


def seed_init(seed: int) -> None:
    """Re-seed layer weight initialization (tests / reproducibility)."""
    global _default_rng
    _default_rng = np.random.default_rng(seed)


class Linear(Module):
    """Fully-connected layer, weights (out_features, in_features)."""

    def __init__(self, in_features: int, out_features: int,
                 bias: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            _kaiming((out_features, in_features), in_features, _default_rng),
            requires_grad=True,
        )
        self.bias = (
            Tensor(np.zeros(out_features), requires_grad=True)
            if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """2-D convolution, OIHW weights, square kernel/stride/padding."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        self.weight = Tensor(
            _kaiming(
                (out_channels, in_channels // groups,
                 kernel_size, kernel_size),
                fan_in, _default_rng,
            ),
            requires_grad=True,
        )
        self.bias = (
            Tensor(np.zeros(out_channels), requires_grad=True)
            if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(
            x, self.weight, self.bias,
            stride=self.stride, padding=self.padding, groups=self.groups,
        )


class BatchNorm2d(Module):
    """Batch normalization with running statistics."""

    def __init__(self, channels: int, momentum: float = 0.1,
                 eps: float = 1e-5) -> None:
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm2d(
            x, self.gamma, self.beta,
            self.running_mean, self.running_var,
            training=self.training, momentum=self.momentum, eps=self.eps,
        )


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class ReLU6(Module):
    """Clipped ReLU -- the paper swaps this into VGG-16 before 2/3-bit QAT."""

    def forward(self, x: Tensor) -> Tensor:
        return x.clip(0.0, 6.0)


class SiLU(Module):
    """Swish activation (EfficientNet)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.silu()


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.flatten(x)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Sequential(Module):
    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


# ---------------------------------------------------------------------------
# Quantization-aware layers (Section IV-A scheme)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerQuantSpec:
    """Per-layer quantization choice: the paper's aX-wY knob.

    ``act_bits``/``weight_bits`` of ``None`` disable fake quantization on
    that operand (used for float baselines).  ``act_signed`` is false for
    post-ReLU inputs (the common case).
    """

    act_bits: Optional[int] = None
    weight_bits: Optional[int] = None
    act_signed: bool = False

    @property
    def name(self) -> str:
        a = self.act_bits if self.act_bits is not None else "fp"
        w = self.weight_bits if self.weight_bits is not None else "fp"
        return f"a{a}-w{w}"


class _QuantMixin:
    """Shared fake-quantization plumbing for conv/linear layers."""

    def _init_quant(self, spec: LayerQuantSpec,
                    initial_act_scale: float) -> None:
        self.spec = spec
        if spec.act_bits is not None:
            self.act_log_scale = init_log_scale(initial_act_scale)

    def _quant_input(self, x: Tensor) -> Tensor:
        if self.spec.act_bits is None:
            return x
        return fake_quant_learned(
            x, self.act_log_scale, self.spec.act_bits,
            signed=self.spec.act_signed,
        )

    def _quant_weight(self, weight: Tensor, channel_axis: int = 0) -> Tensor:
        if self.spec.weight_bits is None:
            return weight
        scale = weight_absmax_scale(
            weight.data, self.spec.weight_bits, channel_axis=channel_axis
        )
        return fake_quant_ste(
            weight, scale, self.spec.weight_bits,
            signed=True, channel_axis=channel_axis,
        )

    def calibrate_act_scale(self, scale: float) -> None:
        """Overwrite the learned activation scale (PTQ initialization)."""
        if self.spec.act_bits is None:
            raise ValueError("layer has no activation quantizer")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.act_log_scale.data = np.asarray(np.log(scale))


class QuantConv2d(Conv2d, _QuantMixin):
    """Conv2d with QAT fake quantization on inputs and weights."""

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_size: int, *, spec: LayerQuantSpec,
                 stride: int = 1, padding: int = 0, groups: int = 1,
                 bias: bool = True,
                 initial_act_scale: float = 0.1) -> None:
        super().__init__(
            in_channels, out_channels, kernel_size,
            stride=stride, padding=padding, groups=groups, bias=bias,
        )
        self._init_quant(spec, initial_act_scale)

    def forward(self, x: Tensor) -> Tensor:
        xq = self._quant_input(x)
        wq = self._quant_weight(self.weight)
        return F.conv2d(xq, wq, self.bias, stride=self.stride,
                        padding=self.padding, groups=self.groups)


class QuantLinear(Linear, _QuantMixin):
    """Linear with QAT fake quantization on inputs and weights."""

    def __init__(self, in_features: int, out_features: int, *,
                 spec: LayerQuantSpec, bias: bool = True,
                 initial_act_scale: float = 0.1) -> None:
        super().__init__(in_features, out_features, bias=bias)
        self._init_quant(spec, initial_act_scale)

    def forward(self, x: Tensor) -> Tensor:
        xq = self._quant_input(x)
        wq = self._quant_weight(self.weight)
        return F.linear(xq, wq, self.bias)
