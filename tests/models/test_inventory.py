"""Inventory tests: MAC totals vs published figures, GEMM mappings."""

import pytest

from repro.models.inventory import (
    DISPLAY_NAMES,
    NETWORKS,
    get_network,
    table3_convolution,
)


#: Published MAC counts (multiply-accumulates per 224x224 inference).
PUBLISHED_GMACS = {
    "alexnet": 0.71,
    "vgg16": 15.5,
    "resnet18": 1.81,
    "mobilenet_v1": 0.57,
    "regnet_x_400mf": 0.41,
    "efficientnet_b0": 0.39,
}

#: Published parameter counts (millions).
PUBLISHED_MPARAMS = {
    "alexnet": 61.1,
    "vgg16": 138.4,
    "resnet18": 11.7,
    "mobilenet_v1": 4.2,
    "regnet_x_400mf": 5.5,
    "efficientnet_b0": 5.3,
}


class TestMacTotals:
    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_total_macs_match_published(self, name):
        net = get_network(name)
        assert net.total_macs / 1e9 == pytest.approx(
            PUBLISHED_GMACS[name], rel=0.05
        ), name

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_weights_match_published(self, name):
        net = get_network(name)
        assert net.total_weights / 1e6 == pytest.approx(
            PUBLISHED_MPARAMS[name], rel=0.07
        ), name

    def test_conv_dominates_except_classifier_heavy_nets(self):
        # ResNet/MobileNet/RegNet/EfficientNet are conv-dominated.
        for name in ("resnet18", "mobilenet_v1", "regnet_x_400mf"):
            net = get_network(name)
            assert net.conv_macs / net.total_macs > 0.95


class TestLayerGeometry:
    def test_alexnet_conv1_shape(self):
        net = get_network("alexnet")
        conv1 = net.layers[0]
        assert conv1.out_size == 55
        assert conv1.gemm_dims == (55 * 55, 3 * 11 * 11, 64)

    def test_resnet18_structure(self):
        net = get_network("resnet18")
        downsamples = [l for l in net.layers if "downsample" in l.name]
        assert len(downsamples) == 3  # stages 2-4
        convs = [l for l in net.layers if l.kind == "conv"]
        assert len(convs) == 17  # stem + 16 block convs

    def test_mobilenet_depthwise_count(self):
        net = get_network("mobilenet_v1")
        dw = [l for l in net.layers if l.kind == "depthwise"]
        pw = [l for l in net.layers if l.kind == "pointwise"]
        assert len(dw) == 13
        assert len(pw) == 13
        for layer in dw:
            assert layer.groups == layer.in_channels

    def test_vgg16_has_13_convs_3_fcs(self):
        net = get_network("vgg16")
        assert len(net.conv_layers) == 13
        assert len(net.layers) - len(net.conv_layers) == 3

    def test_regnet_group_convs(self):
        net = get_network("regnet_x_400mf")
        grouped = [l for l in net.layers if l.groups > 1]
        assert grouped
        for layer in grouped:
            assert layer.out_channels // layer.groups == 16  # group width

    def test_efficientnet_se_blocks(self):
        net = get_network("efficientnet_b0")
        se = [l for l in net.layers if "se_" in l.name]
        assert len(se) == 2 * 16  # 16 MBConv blocks

    def test_final_spatial_size_is_7(self):
        for name in ("resnet18", "mobilenet_v1", "regnet_x_400mf",
                     "efficientnet_b0"):
            net = get_network(name)
            last_conv = [l for l in net.conv_layers if l.in_size > 1][-1]
            assert last_conv.out_size == 7, name


class TestRegistry:
    def test_all_six_networks(self):
        assert len(NETWORKS) == 6
        assert set(DISPLAY_NAMES) == set(NETWORKS)

    def test_unknown_network(self):
        with pytest.raises(KeyError):
            get_network("lenet")


class TestTable3Convolution:
    def test_footnote_shapes(self):
        conv = table3_convolution()
        assert conv.in_channels == 32
        assert conv.out_channels == 64
        assert conv.kernel == 3
        assert conv.in_size == 16
        # 16x16x32 input, 64x3x3x32 filter, same padding.
        assert conv.macs == 16 * 16 * 32 * 9 * 64
