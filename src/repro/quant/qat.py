"""Quantization-aware training: the paper's Section IV-A workflow.

Implements the Figure 3 pipeline on the numpy substrate:

1. start from a (pre)trained float model;
2. post-training-quantize: calibrate activation scales with the 99.999
   percentile observer, apply bias correction;
3. retrain with fake quantization in the graph (QAT) using the paper's
   SGD recipes (momentum 0.9, weight decay 1e-4, step LR).

Every network in the paper keeps its first and last layers at 8 bits "to
preserve accuracy"; :func:`set_model_bits` enforces that by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from repro.nn.autograd import Tensor, accuracy, softmax_cross_entropy
from repro.nn.data import Dataset
from repro.nn.functional_quant import init_log_scale
from repro.nn.layers import LayerQuantSpec, Module, QuantConv2d, QuantLinear
from repro.nn.optim import SGD, StepLR

from .observers import PAPER_CALIBRATION_BATCHES, PercentileObserver


@dataclass(frozen=True)
class QatRecipe:
    """One network's training hyper-parameters (Section IV-A)."""

    lr: float
    epochs: int
    lr_step: int
    batch_size: int
    momentum: float = 0.9
    weight_decay: float = 1e-4
    gamma: float = 0.1

    def scaled(self, epoch_scale: float) -> "QatRecipe":
        """Shrink the schedule for laptop-scale runs, keeping its shape."""
        return replace(
            self,
            epochs=max(1, int(round(self.epochs * epoch_scale))),
            lr_step=max(1, int(round(self.lr_step * epoch_scale))),
        )


#: The per-network QAT recipes of Section IV-A (ImageNet scale).  The
#: reproduction uses them via ``.scaled()`` on synthetic data.
PAPER_RECIPES: dict[str, QatRecipe] = {
    "resnet18": QatRecipe(lr=1e-3, epochs=90, lr_step=30, batch_size=256),
    "alexnet": QatRecipe(lr=1e-4, epochs=90, lr_step=30, batch_size=128),
    "mobilenet_v1": QatRecipe(lr=1e-2, epochs=120, lr_step=30,
                              batch_size=128),
    "vgg16": QatRecipe(lr=1e-3, epochs=45, lr_step=15, batch_size=32),
    "regnet_x_400mf": QatRecipe(lr=4e-2, epochs=150, lr_step=30,
                                batch_size=128),
    "efficientnet_b0": QatRecipe(lr=3.2e-3, epochs=90, lr_step=30,
                                 batch_size=64),
}


@dataclass
class TrainHistory:
    """Per-epoch training record."""

    loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)

    @property
    def best_val_accuracy(self) -> float:
        """The paper reports "the best TOP-1 validation accuracy"."""
        return max(self.val_accuracy) if self.val_accuracy else 0.0


def quant_layers(model: Module) -> list[Module]:
    """All quantization-aware layers of a model, in forward order."""
    return [m for m in model.modules()
            if isinstance(m, (QuantConv2d, QuantLinear))]


def set_model_bits(
    model: Module,
    act_bits: Optional[int],
    weight_bits: Optional[int],
    *,
    first_last_bits: Optional[int] = 8,
) -> None:
    """Retarget every quant layer to ``aX-wY``.

    ``first_last_bits`` pins the first and last layers (default 8-bit),
    following the paper; pass ``None`` to quantize them like the rest.
    """
    layers = quant_layers(model)
    for idx, layer in enumerate(layers):
        is_edge = idx in (0, len(layers) - 1)
        if is_edge and first_last_bits is not None:
            a_bits = first_last_bits if act_bits is not None else None
            w_bits = first_last_bits if weight_bits is not None else None
        else:
            a_bits, w_bits = act_bits, weight_bits
        layer.spec = LayerQuantSpec(
            act_bits=a_bits, weight_bits=w_bits,
            act_signed=layer.spec.act_signed,
        )
        # A layer built as float has no learned activation scale yet;
        # create it when (re)enabling activation quantization.
        if a_bits is not None and not hasattr(layer, "act_log_scale"):
            layer.act_log_scale = init_log_scale(0.1)


def observe_layer_inputs(
    model: Module,
    dataset: Dataset,
    on_input: Callable[[Module, np.ndarray], None],
    *,
    batch_size: int,
    batches: int,
) -> None:
    """Run up to ``batches`` calibration batches through ``model`` in
    eval mode, calling ``on_input(layer, x)`` with each quant layer's
    input array before the layer quantizes it.

    Every quant layer's ``_quant_input`` is hooked for the run and
    restored afterwards, also when the forward raises.
    """
    hooked: list[tuple[Module, Callable]] = []
    for layer in quant_layers(model):
        original = layer._quant_input

        def make_hook(layer=layer, original=original):
            def hook(x):
                on_input(layer, x.data)
                return original(x)
            return hook

        layer._quant_input = make_hook()
        hooked.append((layer, original))

    model.eval()
    try:
        seen = 0
        for images, _ in dataset.batches(batch_size):
            model(Tensor(images))
            seen += 1
            if seen >= batches:
                break
    finally:
        for layer, original in hooked:
            layer._quant_input = original


def calibrate_activations(
    model: Module,
    dataset: Dataset,
    *,
    batch_size: int = 32,
    batches: int = PAPER_CALIBRATION_BATCHES,
) -> None:
    """PTQ initialization of the learned activation scales.

    Runs the model on calibration batches while percentile observers watch
    each quant layer's input, then writes the averaged scales into the
    learnable log-domain parameters (the paper's "averaging the 99.999
    percentile of the activation absolute values for 8 batches").
    """
    layers = quant_layers(model)
    observers = {
        id(layer): PercentileObserver(
            layer.spec.act_bits or 8, signed=layer.spec.act_signed
        )
        for layer in layers
    }
    observe_layer_inputs(
        model, dataset,
        lambda layer, x: observers[id(layer)].observe(x),
        batch_size=batch_size, batches=batches,
    )
    for layer in layers:
        if layer.spec.act_bits is None:
            continue
        qp = observers[id(layer)].quant_params()
        layer.calibrate_act_scale(float(qp.scale))


def evaluate(model: Module, dataset: Dataset,
             batch_size: int = 64) -> float:
    """TOP-1 accuracy over a dataset."""
    model.eval()
    correct = 0
    for images, labels in dataset.batches(batch_size):
        logits = model(Tensor(images))
        correct += int(
            (logits.data.argmax(axis=1) == labels).sum()
        )
    return correct / len(dataset)


def train_qat(
    model: Module,
    train_set: Dataset,
    val_set: Dataset,
    recipe: QatRecipe,
    *,
    seed: int = 0,
    log: Optional[Callable[[str], None]] = None,
) -> TrainHistory:
    """One QAT run with the paper's SGD + step-LR recipe."""
    rng = np.random.default_rng(seed)
    optimizer = SGD(
        model.parameters(), lr=recipe.lr,
        momentum=recipe.momentum, weight_decay=recipe.weight_decay,
    )
    schedule = StepLR(optimizer, recipe.lr_step, recipe.gamma)
    history = TrainHistory()
    for epoch in range(recipe.epochs):
        model.train()
        losses, accs = [], []
        for images, labels in train_set.batches(recipe.batch_size, rng):
            optimizer.zero_grad()
            logits = model(Tensor(images))
            loss, probs = softmax_cross_entropy(logits, labels)
            loss.backward()
            optimizer.step()
            losses.append(float(loss.data))
            accs.append(accuracy(probs, labels))
        val_acc = evaluate(model, val_set)
        history.loss.append(float(np.mean(losses)))
        history.train_accuracy.append(float(np.mean(accs)))
        history.val_accuracy.append(val_acc)
        schedule.step()
        if log is not None:
            log(
                f"epoch {epoch + 1}/{recipe.epochs}: "
                f"loss={history.loss[-1]:.4f} "
                f"train={history.train_accuracy[-1]:.3f} "
                f"val={val_acc:.3f} lr={schedule.current_lr:.2e}"
            )
    return history
