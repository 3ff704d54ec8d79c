"""Optimizers and LR schedules for (quantization-aware) training.

The paper retrains every network with "SGD featuring momentum of 0.9,
weight decay 1e-4" and a step schedule "lowering the learning rate by 0.1
every 30 epochs" (Section IV-A); :class:`SGD` + :class:`StepLR` implement
exactly that recipe.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .autograd import Tensor


class SGD:
    """Stochastic gradient descent with momentum and weight decay."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        self.params: list[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"invalid learning rate: {lr}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                update = v
            else:
                update = grad
            p.data -= self.lr * update


class StepLR:
    """Multiply the LR by ``gamma`` every ``step_epochs`` epochs."""

    def __init__(self, optimizer: SGD, step_epochs: int,
                 gamma: float = 0.1) -> None:
        if step_epochs < 1:
            raise ValueError("step_epochs must be >= 1")
        self.optimizer = optimizer
        self.step_epochs = step_epochs
        self.gamma = gamma
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> None:
        """Advance one epoch and update the optimizer LR."""
        self.epoch += 1
        decays = self.epoch // self.step_epochs
        self.optimizer.lr = self.base_lr * (self.gamma ** decays)

    @property
    def current_lr(self) -> float:
        return self.optimizer.lr

