"""Autograd engine tests, including numerical gradient checks."""

import numpy as np
import pytest

from repro.nn.autograd import (
    Tensor,
    accuracy,
    softmax_cross_entropy,
    unbroadcast,
)


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    g = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        g[i] = (hi - lo) / (2 * eps)
    return grad


def check_grad(make_output, x_data, atol=1e-5):
    """Compare autograd gradient against central differences."""
    x = Tensor(x_data.copy(), requires_grad=True)
    out = make_output(x)
    out.sum().backward()
    got = x.grad

    def scalar_fn(data):
        return float(make_output(Tensor(data)).data.sum())

    want = numerical_grad(scalar_fn, x_data.copy())
    assert np.allclose(got, want, atol=atol), \
        f"max err {np.abs(got - want).max()}"


rng = np.random.default_rng(0)


class TestElementwiseGrads:
    def test_add(self):
        check_grad(lambda x: x + 3.0, rng.normal(size=(3, 4)))

    def test_mul(self):
        y = rng.normal(size=(3, 4))
        check_grad(lambda x: x * y, rng.normal(size=(3, 4)))

    def test_sub_neg(self):
        check_grad(lambda x: 1.0 - x, rng.normal(size=(5,)))

    def test_div(self):
        check_grad(lambda x: x / 2.5, rng.normal(size=(4,)))
        check_grad(lambda x: 2.5 / x,
                   rng.normal(size=(4,)) + 3.0)

    def test_pow(self):
        check_grad(lambda x: x ** 3, rng.normal(size=(4,)))

    def test_exp_log(self):
        check_grad(lambda x: x.exp(), rng.normal(size=(4,)))
        check_grad(lambda x: x.log(), np.abs(rng.normal(size=(4,))) + 1.0)

    def test_sigmoid_silu(self):
        check_grad(lambda x: x.sigmoid(), rng.normal(size=(6,)))
        check_grad(lambda x: x.silu(), rng.normal(size=(6,)))

    def test_relu(self):
        x = rng.normal(size=(10,))
        x[np.abs(x) < 0.1] += 0.5  # stay off the kink
        check_grad(lambda t: t.relu(), x)

    def test_clip(self):
        x = np.array([-1.0, 0.5, 3.0, 7.0])
        check_grad(lambda t: t.clip(0.0, 6.0), x)


class TestBroadcastingGrads:
    def test_broadcast_add(self):
        b = rng.normal(size=(4,))
        check_grad(lambda x: x + b, rng.normal(size=(3, 4)))

    def test_bias_gradient_sums(self):
        x = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        (x + b).sum().backward()
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)

    def test_unbroadcast_shapes(self):
        g = np.ones((5, 3, 4))
        assert unbroadcast(g, (3, 4)).shape == (3, 4)
        assert unbroadcast(g, (1, 4)).shape == (1, 4)
        assert unbroadcast(np.ones((3, 4)), (3, 1)).shape == (3, 1)


class TestMatrixGrads:
    def test_matmul(self):
        w = rng.normal(size=(4, 5))
        check_grad(lambda x: x @ Tensor(w), rng.normal(size=(3, 4)))

    def test_matmul_weight_grad(self):
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        (x @ w).sum().backward()
        assert np.allclose(w.grad, x.data.T @ np.ones((3, 5)))

    def test_transpose_reshape(self):
        check_grad(lambda x: x.T, rng.normal(size=(3, 4)))
        check_grad(lambda x: x.reshape(12), rng.normal(size=(3, 4)))


class TestReductions:
    def test_sum_axis(self):
        check_grad(lambda x: x.sum(axis=0), rng.normal(size=(3, 4)))
        check_grad(lambda x: x.sum(axis=(0, 2)),
                   rng.normal(size=(2, 3, 4)))

    def test_mean(self):
        check_grad(lambda x: x.mean(), rng.normal(size=(3, 4)))
        check_grad(lambda x: x.mean(axis=1), rng.normal(size=(3, 4)))


class TestBackwardMechanics:
    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x  # x used twice
        y.backward()
        assert np.allclose(x.grad, [4.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        a = x * 2.0
        b = x + 1.0
        (a * b).backward()  # d/dx (2x (x+1)) = 4x + 2
        assert np.allclose(x.grad, [14.0])

    def test_no_grad_tensors_skipped(self):
        x = Tensor(np.array([1.0]))
        y = Tensor(np.array([2.0]), requires_grad=True)
        (x * y).backward()
        assert x.grad is None
        assert np.allclose(y.grad, [1.0])

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(np.array([1.0])).backward()

    def test_zero_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None

    def test_wrapping_tensor_rejected(self):
        with pytest.raises(TypeError):
            Tensor(Tensor([1.0]))


class TestSoftmaxCrossEntropy:
    def test_loss_value_matches_manual(self):
        logits = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]),
                        requires_grad=True)
        labels = np.array([0, 1])
        loss, probs = softmax_cross_entropy(logits, labels)
        manual = -np.log(np.exp(2) / (np.exp(2) + 1))
        assert float(loss.data) == pytest.approx(manual)

    def test_gradient_matches_numerical(self):
        z = rng.normal(size=(4, 3))
        labels = np.array([0, 1, 2, 1])

        def fn(data):
            t = Tensor(data)
            loss, _ = softmax_cross_entropy(t, labels)
            return float(loss.data)

        logits = Tensor(z.copy(), requires_grad=True)
        loss, _ = softmax_cross_entropy(logits, labels)
        loss.backward()
        want = numerical_grad(fn, z.copy())
        assert np.allclose(logits.grad, want, atol=1e-6)

    def test_probs_sum_to_one(self):
        logits = Tensor(rng.normal(size=(5, 7)))
        _, probs = softmax_cross_entropy(logits, np.zeros(5, dtype=int))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_accuracy(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert accuracy(probs, np.array([0, 1, 1])) == pytest.approx(2 / 3)
