"""Reverse-mode automatic differentiation on numpy arrays.

The paper trains its quantized networks with PyTorch + Brevitas; neither is
available offline, so this module provides the training substrate: a small
define-by-run autograd engine sufficient for CNN training with
quantization-aware training (straight-through estimators and LSQ-style
learned scales live in :mod:`repro.nn.functional_quant`).

Design notes
------------
* A :class:`Tensor` wraps an ``ndarray`` plus an optional gradient and a
  backward closure; :meth:`Tensor.backward` runs a topological sweep.
* Elementwise ops broadcast like numpy; gradients are un-broadcast by
  summing over expanded axes (:func:`unbroadcast`).
* Heavy kernels (conv2d, pooling) are fused ops with hand-written
  backward passes built on the im2col machinery, mirroring how the paper
  lowers convolutions to GEMM (Section II-A).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    # Sum out prepended axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy array with an autograd tape entry.

    Only float64 data participates in gradients; integer tensors may be
    wrapped (e.g. label arrays) but must not require gradients.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data: ArrayLike, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            raise TypeError("wrapping a Tensor in a Tensor is a bug")
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple[Tensor, ...] = ()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _lift(value: ArrayLike | "Tensor") -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- tape machinery ---------------------------------------------------------

    @staticmethod
    def _node(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    @staticmethod
    def _accumulate(tensor: "Tensor", grad: np.ndarray) -> None:
        if not tensor.requires_grad:
            return
        grad = unbroadcast(grad, tensor.shape)
        if tensor.grad is None:
            tensor.grad = grad.copy()
        else:
            tensor.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor (default seed: ones)."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor without grad")
        if grad is None:
            grad = np.ones_like(self.data)
        # Topological order over the tape.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.asarray(grad, dtype=np.float64)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- elementwise arithmetic ---------------------------------------------------

    def __add__(self, other: ArrayLike | "Tensor") -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad)
            Tensor._accumulate(other, grad)

        return self._node(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, -grad)

        return self._node(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike | "Tensor") -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: ArrayLike | "Tensor") -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad * other.data)
            Tensor._accumulate(other, grad * self.data)

        return self._node(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike | "Tensor") -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad / other.data)
            Tensor._accumulate(other,
                               -grad * self.data / (other.data ** 2))

        return self._node(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(
                self, grad * exponent * self.data ** (exponent - 1)
            )

        return self._node(out_data, (self,), backward)

    # -- matrix ops -----------------------------------------------------------------

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad @ other.data.T)
            Tensor._accumulate(other, self.data.T @ grad)

        return self._node(out_data, (self, other), backward)

    __matmul__ = matmul

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes or tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes_tuple)
        inverse = np.argsort(axes_tuple)

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad.transpose(inverse))

        return self._node(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad.reshape(original))

        return self._node(out_data, (self,), backward)

    # -- reductions --------------------------------------------------------------------

    def sum(self, axis: Optional[tuple[int, ...] | int] = None,
            keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if not keepdims and axis is not None:
                g = np.expand_dims(g, axis)
            Tensor._accumulate(self, np.broadcast_to(g, self.shape))

        return self._node(out_data, (self,), backward)

    def mean(self, axis: Optional[tuple[int, ...] | int] = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        elif isinstance(axis, int):
            count = self.shape[axis]
        else:
            count = int(np.prod([self.shape[a] for a in axis]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- nonlinearities -----------------------------------------------------------------

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad * mask)

        return self._node(out_data, (self,), backward)

    def clip(self, lo: float, hi: float) -> "Tensor":
        """Hard clip with pass-through gradient inside the range.

        ``x.clip(0, 6)`` is ReLU6, the activation the paper substitutes
        into VGG-16 before extreme quantization (Section IV-A).
        """
        mask = (self.data > lo) & (self.data < hi)
        out_data = np.clip(self.data, lo, hi)

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad * mask)

        return self._node(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad * out_data)

        return self._node(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad / self.data)

        return self._node(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad * out_data * (1.0 - out_data))

        return self._node(out_data, (self,), backward)

    def silu(self) -> "Tensor":
        """x * sigmoid(x) -- EfficientNet's activation (swish)."""
        sig = 1.0 / (1.0 + np.exp(-self.data))
        out_data = self.data * sig

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(
                self, grad * (sig + self.data * sig * (1.0 - sig))
            )

        return self._node(out_data, (self,), backward)

    # -- shape utilities ---------------------------------------------------------------------


def softmax_cross_entropy(logits: Tensor,
                          labels: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Fused, numerically-stable softmax + cross-entropy.

    ``labels`` are integer class ids of shape (batch,).  Returns the mean
    loss tensor and the (batch, classes) probability array for metrics.
    """
    z = logits.data
    z_shift = z - z.max(axis=1, keepdims=True)
    exp = np.exp(z_shift)
    probs = exp / exp.sum(axis=1, keepdims=True)
    batch = z.shape[0]
    nll = -np.log(probs[np.arange(batch), labels] + 1e-12)
    loss_value = nll.mean()

    def backward(grad: np.ndarray) -> None:
        g = probs.copy()
        g[np.arange(batch), labels] -= 1.0
        Tensor._accumulate(logits, grad * g / batch)

    out = Tensor._node(np.asarray(loss_value), (logits,), backward)
    return out, probs


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    """TOP-1 accuracy of a probability batch."""
    return float((probs.argmax(axis=1) == labels).mean())
