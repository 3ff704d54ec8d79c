"""QAT pipeline tests: recipes, calibration, training."""

import numpy as np
import pytest

from repro.nn.autograd import Tensor
from repro.nn.data import synthetic_image_dataset
from repro.nn.layers import (
    Flatten,
    GlobalAvgPool2d,
    LayerQuantSpec,
    QuantConv2d,
    QuantLinear,
    ReLU,
    Sequential,
    seed_init,
)
from repro.quant.qat import (
    PAPER_RECIPES,
    QatRecipe,
    calibrate_activations,
    evaluate,
    quant_layers,
    set_model_bits,
    train_qat,
)


def make_tiny_qcnn(act_bits=8, weight_bits=8, n_classes=4):
    seed_init(123)
    spec_in = LayerQuantSpec(act_bits=act_bits, weight_bits=weight_bits,
                             act_signed=True)
    spec_mid = LayerQuantSpec(act_bits=act_bits, weight_bits=weight_bits)
    return Sequential(
        QuantConv2d(1, 8, 3, spec=spec_in, padding=1),
        ReLU(),
        QuantConv2d(8, 8, 3, spec=spec_mid, padding=1, stride=2),
        ReLU(),
        GlobalAvgPool2d(),
        QuantLinear(8, n_classes, spec=spec_mid),
    )


@pytest.fixture(scope="module")
def dataset():
    return synthetic_image_dataset(
        n_classes=4, n_samples=240, image_size=12, seed=0
    ).split(0.8)


class TestRecipes:
    def test_paper_recipes_present(self):
        assert set(PAPER_RECIPES) == {
            "alexnet", "vgg16", "resnet18", "mobilenet_v1",
            "regnet_x_400mf", "efficientnet_b0",
        }

    def test_paper_recipe_values(self):
        # Section IV-A: ResNet-18 lr 1e-3, 90 epochs, step 30, batch 256.
        r = PAPER_RECIPES["resnet18"]
        assert (r.lr, r.epochs, r.lr_step, r.batch_size) == \
            (1e-3, 90, 30, 256)
        assert r.momentum == 0.9
        assert r.weight_decay == 1e-4

    def test_scaled_recipe(self):
        r = PAPER_RECIPES["resnet18"].scaled(0.1)
        assert r.epochs == 9
        assert r.lr_step == 3
        assert r.lr == PAPER_RECIPES["resnet18"].lr


class TestSetModelBits:
    def test_first_last_stay_8bit(self):
        model = make_tiny_qcnn()
        set_model_bits(model, 3, 3)
        layers = quant_layers(model)
        assert layers[0].spec.act_bits == 8
        assert layers[0].spec.weight_bits == 8
        assert layers[-1].spec.weight_bits == 8
        assert layers[1].spec.act_bits == 3
        assert layers[1].spec.weight_bits == 3

    def test_override_first_last(self):
        model = make_tiny_qcnn()
        set_model_bits(model, 2, 2, first_last_bits=None)
        assert all(
            layer.spec.weight_bits == 2 for layer in quant_layers(model)
        )

    def test_signedness_preserved(self):
        model = make_tiny_qcnn()
        signed_before = [layer.spec.act_signed
                         for layer in quant_layers(model)]
        set_model_bits(model, 4, 4)
        signed_after = [layer.spec.act_signed
                        for layer in quant_layers(model)]
        assert signed_before == signed_after

    def test_none_disables_quant(self):
        model = make_tiny_qcnn()
        set_model_bits(model, None, None, first_last_bits=None)
        assert all(layer.spec.act_bits is None
                   for layer in quant_layers(model))


class TestCalibration:
    def test_calibration_sets_scales(self, dataset):
        train, _ = dataset
        model = make_tiny_qcnn()
        before = [float(layer.act_log_scale.data)
                  for layer in quant_layers(model)]
        calibrate_activations(model, train, batch_size=16, batches=4)
        after = [float(layer.act_log_scale.data)
                 for layer in quant_layers(model)]
        assert before != after

    def test_calibrated_model_still_runs(self, dataset):
        train, val = dataset
        model = make_tiny_qcnn()
        calibrate_activations(model, train, batch_size=16, batches=2)
        acc = evaluate(model, val)
        assert 0.0 <= acc <= 1.0


class TestTraining:
    def test_qat_improves_over_init(self, dataset):
        train, val = dataset
        model = make_tiny_qcnn(act_bits=8, weight_bits=8)
        calibrate_activations(model, train, batch_size=16, batches=4)
        init_acc = evaluate(model, val)
        recipe = QatRecipe(lr=0.05, epochs=8, lr_step=6, batch_size=32)
        history = train_qat(model, train, val, recipe, seed=0)
        assert history.best_val_accuracy > max(init_acc, 0.4)
        assert len(history.loss) == 8

    def test_history_records_epochs(self, dataset):
        train, val = dataset
        model = make_tiny_qcnn()
        recipe = QatRecipe(lr=0.01, epochs=2, lr_step=1, batch_size=32)
        history = train_qat(model, train, val, recipe)
        assert len(history.val_accuracy) == 2
        assert len(history.train_accuracy) == 2


class TestAccuracyBitwidthTrend:
    def test_8bit_beats_2bit_after_training(self, dataset):
        """The qualitative Figure 7 trend on synthetic data."""
        train, val = dataset
        recipe = QatRecipe(lr=0.05, epochs=8, lr_step=6, batch_size=32)
        accs = {}
        for bits in (8, 2):
            model = make_tiny_qcnn(act_bits=bits, weight_bits=bits)
            # Quantize *every* layer (no 8-bit rescue) to sharpen the trend.
            set_model_bits(model, bits, bits, first_last_bits=None)
            calibrate_activations(model, train, batch_size=16, batches=4)
            history = train_qat(model, train, val, recipe, seed=1)
            accs[bits] = history.best_val_accuracy
        assert accs[8] >= accs[2]
