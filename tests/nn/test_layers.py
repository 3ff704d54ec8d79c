"""Layer / module-system tests, incl. conv & pooling gradient checks."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.autograd import Tensor, softmax_cross_entropy
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    LayerQuantSpec,
    Linear,
    MaxPool2d,
    Module,
    QuantConv2d,
    QuantLinear,
    ReLU,
    ReLU6,
    Sequential,
    seed_init,
)
from repro.nn.optim import SGD, StepLR

from .test_autograd import numerical_grad

rng = np.random.default_rng(0)


class TestConvGrads:
    @pytest.mark.parametrize("stride, padding, groups",
                             [(1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 1, 2)])
    def test_conv2d_input_grad(self, stride, padding, groups):
        x_data = rng.normal(size=(2, 4, 5, 5))
        w = Tensor(rng.normal(size=(6, 4 // groups, 3, 3)))

        def out(x):
            return F.conv2d(x, w, stride=stride, padding=padding,
                            groups=groups)

        x = Tensor(x_data.copy(), requires_grad=True)
        out(x).sum().backward()

        def fn(data):
            return float(out(Tensor(data)).data.sum())

        want = numerical_grad(fn, x_data.copy(), eps=1e-6)
        assert np.allclose(x.grad, want, atol=1e-5)

    def test_conv2d_weight_and_bias_grad(self):
        x = Tensor(rng.normal(size=(2, 3, 5, 5)))
        w_data = rng.normal(size=(4, 3, 3, 3))
        b_data = rng.normal(size=4)
        w = Tensor(w_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        F.conv2d(x, w, b, padding=1).sum().backward()

        def fn_w(data):
            return float(
                F.conv2d(x, Tensor(data), Tensor(b_data),
                         padding=1).data.sum()
            )

        assert np.allclose(w.grad, numerical_grad(fn_w, w_data.copy()),
                           atol=1e-5)
        # Bias gradient is just the output count per channel.
        assert np.allclose(b.grad, 2 * 5 * 5)

    def test_depthwise_conv(self):
        # MobileNet-style depthwise: groups == channels.
        x = Tensor(rng.normal(size=(1, 4, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 1, 3, 3)), requires_grad=True)
        y = F.conv2d(x, w, padding=1, groups=4)
        assert y.shape == (1, 4, 6, 6)
        y.sum().backward()
        assert x.grad.shape == x.shape
        assert w.grad.shape == w.shape


class TestPoolingGrads:
    def test_max_pool_forward(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        y = F.max_pool2d(x, 2)
        assert np.array_equal(y.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_grad_routes_to_argmax(self):
        x_data = rng.normal(size=(2, 3, 6, 6))
        x = Tensor(x_data.copy(), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()

        def fn(data):
            return float(F.max_pool2d(Tensor(data), 2).data.sum())

        want = numerical_grad(fn, x_data.copy())
        assert np.allclose(x.grad, want, atol=1e-5)

    def test_avg_pool_grad(self):
        x_data = rng.normal(size=(1, 2, 4, 4))
        x = Tensor(x_data.copy(), requires_grad=True)
        F.avg_pool2d(x, 2).sum().backward()
        assert np.allclose(x.grad, 0.25)

    def test_global_avg_pool(self):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        y = F.global_avg_pool2d(x)
        assert y.shape == (2, 3)
        assert np.allclose(y.data, x.data.mean(axis=(2, 3)))


class TestBatchNorm:
    def test_normalizes_in_training(self):
        bn = BatchNorm2d(3)
        x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(8, 3, 4, 4)))
        y = bn(x)
        assert np.allclose(y.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        assert np.allclose(y.data.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_running_stats_update(self):
        bn = BatchNorm2d(2, momentum=0.5)
        x = Tensor(np.full((4, 2, 2, 2), 10.0))
        bn(x)
        assert np.allclose(bn.running_mean, 5.0)  # 0.5*0 + 0.5*10

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(2)
        bn.running_mean[:] = 1.0
        bn.running_var[:] = 4.0
        bn.eval()
        x = Tensor(np.full((1, 2, 1, 1), 3.0))
        y = bn(x)
        assert np.allclose(y.data, (3 - 1) / 2, atol=1e-3)

    def test_gradcheck_training_mode(self):
        x_data = rng.normal(size=(4, 2, 3, 3))
        gamma = np.array([1.5, 0.5])
        beta = np.array([0.1, -0.2])

        def out(x):
            return F.batch_norm2d(
                x, Tensor(gamma), Tensor(beta),
                np.zeros(2), np.ones(2), training=True,
            )

        x = Tensor(x_data.copy(), requires_grad=True)
        out(x).sum().backward()

        def fn(data):
            return float(out(Tensor(data)).data.sum())

        want = numerical_grad(fn, x_data.copy())
        assert np.allclose(x.grad, want, atol=1e-4)


class TestModuleSystem:
    def test_parameter_registration(self):
        layer = Linear(4, 3)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_nested_modules(self):
        model = Sequential(Conv2d(1, 2, 3), ReLU(), Linear(8, 4))
        names = [n for n, _ in model.named_parameters()]
        assert any("weight" in n for n in names)

    def test_train_eval_propagates(self):
        model = Sequential(BatchNorm2d(2), ReLU())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self):
        layer = Linear(2, 2)
        out = layer(Tensor(rng.normal(size=(1, 2))))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_seed_init_reproducible(self):
        seed_init(42)
        w1 = Linear(4, 4).weight.data.copy()
        seed_init(42)
        w2 = Linear(4, 4).weight.data.copy()
        assert np.array_equal(w1, w2)


class TestActivationsAndShapes:
    def test_relu6_clips(self):
        y = ReLU6()(Tensor(np.array([-1.0, 3.0, 9.0])))
        assert list(y.data) == [0.0, 3.0, 6.0]

    def test_flatten(self):
        y = Flatten()(Tensor(np.zeros((2, 3, 4, 4))))
        assert y.shape == (2, 48)

    def test_pool_layers(self):
        x = Tensor(np.zeros((1, 2, 8, 8)))
        assert MaxPool2d(2)(x).shape == (1, 2, 4, 4)
        assert AvgPool2d(4)(x).shape == (1, 2, 2, 2)
        assert GlobalAvgPool2d()(x).shape == (1, 2)


class TestQuantLayers:
    def test_quant_linear_quantizes_weights(self):
        spec = LayerQuantSpec(act_bits=8, weight_bits=2)
        layer = QuantLinear(8, 4, spec=spec)
        x = Tensor(rng.normal(size=(2, 8)))
        layer(x)  # must run without error
        # Per-channel 2-bit weights have at most 4 distinct levels/channel.
        from repro.nn.functional_quant import (
            fake_quant_ste, weight_absmax_scale,
        )
        scale = weight_absmax_scale(layer.weight.data, 2)
        wq = fake_quant_ste(layer.weight, scale, 2, channel_axis=0)
        for row in range(4):
            assert len(np.unique(wq.data[row])) <= 4

    def test_quant_conv_trains(self):
        seed_init(0)
        spec = LayerQuantSpec(act_bits=4, weight_bits=4, act_signed=True)
        layer = QuantConv2d(1, 4, 3, spec=spec, padding=1)
        x = Tensor(rng.normal(size=(2, 1, 6, 6)))
        y = layer(x)
        loss = (y * y).sum()
        loss.backward()
        assert layer.weight.grad is not None
        assert layer.act_log_scale.grad is not None

    def test_spec_name(self):
        assert LayerQuantSpec(act_bits=5, weight_bits=3).name == "a5-w3"
        assert LayerQuantSpec().name == "afp-wfp"

    def test_calibrate_act_scale(self):
        spec = LayerQuantSpec(act_bits=8, weight_bits=8)
        layer = QuantLinear(4, 2, spec=spec)
        layer.calibrate_act_scale(0.5)
        assert float(np.exp(layer.act_log_scale.data)) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            layer.calibrate_act_scale(-1.0)

    def test_fp_spec_is_identity(self):
        spec = LayerQuantSpec()  # no quantization
        layer = QuantLinear(4, 2, spec=spec)
        x = Tensor(rng.normal(size=(3, 4)))
        y_q = layer(x)
        y_ref = x.data @ layer.weight.data.T + layer.bias.data
        assert np.allclose(y_q.data, y_ref)


class TestOptim:
    def test_sgd_plain_step(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([p], lr=0.1)
        p.grad = np.array([2.0])
        opt.step()
        assert np.allclose(p.data, [0.8])

    def test_momentum_accumulates(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = SGD([p], lr=1.0, momentum=0.9)
        p.grad = np.array([1.0])
        opt.step()  # v = 1, p = -1
        p.grad = np.array([1.0])
        opt.step()  # v = 1.9, p = -2.9
        assert np.allclose(p.data, [-2.9])

    def test_weight_decay(self):
        p = Tensor(np.array([10.0]), requires_grad=True)
        opt = SGD([p], lr=0.1, weight_decay=0.1)
        p.grad = np.array([0.0])
        opt.step()
        assert np.allclose(p.data, [10.0 - 0.1 * 1.0])

    def test_step_lr_schedule(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = SGD([p], lr=1.0)
        sched = StepLR(opt, step_epochs=2, gamma=0.1)
        sched.step()
        assert opt.lr == pytest.approx(1.0)
        sched.step()
        assert opt.lr == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        p = Tensor(np.array([0.0]), requires_grad=True)
        with pytest.raises(ValueError):
            SGD([p], lr=0.0)


class TestEndToEndTraining:
    def test_small_mlp_learns_xor(self):
        seed_init(7)
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        model = Sequential(Linear(2, 16), ReLU(), Linear(16, 2))
        opt = SGD(model.parameters(), lr=0.5, momentum=0.9)
        for _ in range(300):
            opt.zero_grad()
            logits = model(Tensor(x))
            loss, probs = softmax_cross_entropy(logits, y)
            loss.backward()
            opt.step()
        assert (probs.argmax(axis=1) == y).all()
