"""Layer inventories of the paper's six CNN workloads (Section IV).

The performance evaluation needs every network's *exact computational
shape* -- each convolution's GEMM dimensions after im2col -- not trained
weights.  This module encodes AlexNet, VGG-16, ResNet-18, MobileNet-V1,
RegNet-X-400MF and EfficientNet-B0 at ImageNet scale (224x224 inputs) as
layer lists, from which per-layer GEMM sizes, MAC counts and memory
footprints are derived.

Shapes follow the canonical torchvision / reference implementations the
paper builds on (ref [1], [46]).  Total MAC counts are asserted against
the published figures in the test-suite (AlexNet ~0.7 GMAC, VGG-16 ~15.5
GMAC, ResNet-18 ~1.8 GMAC, MobileNet-V1 ~0.57 GMAC, RegNet-X-400MF ~0.4
GMAC, EfficientNet-B0 ~0.4 GMAC).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.nn.im2col import ConvGeometry


@dataclass(frozen=True)
class LayerSpec:
    """One linear layer (conv or fully-connected) of a workload.

    Fully-connected layers are expressed as 1x1 convolutions over a 1x1
    feature map, which is exactly how they lower to GEMM.
    """

    name: str
    in_channels: int
    out_channels: int
    kernel: int
    stride: int
    padding: int
    in_size: int
    groups: int = 1
    kind: str = "conv"  # "conv", "depthwise", "pointwise", "fc"

    @property
    def geometry(self) -> ConvGeometry:
        return ConvGeometry(
            batch=1,
            in_channels=self.in_channels,
            in_h=self.in_size,
            in_w=self.in_size,
            out_channels=self.out_channels,
            kernel_h=self.kernel,
            kernel_w=self.kernel,
            stride=self.stride,
            padding=self.padding,
            groups=self.groups,
        )

    @property
    def out_size(self) -> int:
        return self.geometry.out_h

    @property
    def macs(self) -> int:
        return self.geometry.macs

    @property
    def gemm_dims(self) -> tuple[int, int, int]:
        """(m, k, n) of the per-group im2col GEMM."""
        geo = self.geometry
        return geo.gemm_m, geo.gemm_k, geo.gemm_n

    @property
    def weight_elements(self) -> int:
        return (self.out_channels * (self.in_channels // self.groups)
                * self.kernel * self.kernel)


@dataclass
class NetworkInventory:
    """A named workload: ordered layer list plus derived totals."""

    name: str
    layers: list[LayerSpec] = field(default_factory=list)
    input_size: int = 224

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def conv_layers(self) -> list[LayerSpec]:
        return [l for l in self.layers if l.kind != "fc"]

    @property
    def total_macs(self) -> int:
        return sum(l.macs for l in self.layers)

    @property
    def conv_macs(self) -> int:
        """MACs in convolutional layers -- the paper's Figure 7 accounts
        "the execution time spent on each convolutional layer"."""
        return sum(l.macs for l in self.conv_layers)

    @property
    def total_weights(self) -> int:
        return sum(l.weight_elements for l in self.layers)

    def weight_bytes(self, bits: int) -> float:
        """Model size at a uniform weight bitwidth."""
        return self.total_weights * bits / 8


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _out(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def alexnet() -> NetworkInventory:
    """AlexNet (Krizhevsky et al.), torchvision variant, 224x224 input."""
    net = NetworkInventory("alexnet")
    s = 224
    net.layers.append(LayerSpec("conv1", 3, 64, 11, 4, 2, s))
    s = _out(s, 11, 4, 2)          # 55
    s = _out(s, 3, 2, 0)           # pool -> 27
    net.layers.append(LayerSpec("conv2", 64, 192, 5, 1, 2, s))
    s = _out(s, 3, 2, 0)           # pool -> 13
    net.layers.append(LayerSpec("conv3", 192, 384, 3, 1, 1, s))
    net.layers.append(LayerSpec("conv4", 384, 256, 3, 1, 1, s))
    net.layers.append(LayerSpec("conv5", 256, 256, 3, 1, 1, s))
    # pool -> 6x6, then the classifier.
    net.layers.append(LayerSpec("fc6", 256 * 6 * 6, 4096, 1, 1, 0, 1,
                                kind="fc"))
    net.layers.append(LayerSpec("fc7", 4096, 4096, 1, 1, 0, 1, kind="fc"))
    net.layers.append(LayerSpec("fc8", 4096, 1000, 1, 1, 0, 1, kind="fc"))
    return net


def vgg16() -> NetworkInventory:
    """VGG-16 (configuration D), 224x224 input."""
    net = NetworkInventory("vgg16")
    cfg = [
        (64, 2), (128, 2), (256, 3), (512, 3), (512, 3),
    ]
    s = 224
    in_ch = 3
    idx = 1
    for width, reps in cfg:
        for _ in range(reps):
            net.layers.append(
                LayerSpec(f"conv{idx}", in_ch, width, 3, 1, 1, s)
            )
            in_ch = width
            idx += 1
        s //= 2  # 2x2 max pool
    net.layers.append(LayerSpec("fc1", 512 * 7 * 7, 4096, 1, 1, 0, 1,
                                kind="fc"))
    net.layers.append(LayerSpec("fc2", 4096, 4096, 1, 1, 0, 1, kind="fc"))
    net.layers.append(LayerSpec("fc3", 4096, 1000, 1, 1, 0, 1, kind="fc"))
    return net


def resnet18() -> NetworkInventory:
    """ResNet-18: stem + 4 stages x 2 basic blocks, 224x224 input."""
    net = NetworkInventory("resnet18")
    net.layers.append(LayerSpec("conv1", 3, 64, 7, 2, 3, 224))
    s = _out(224, 7, 2, 3)  # 112
    s = _out(s, 3, 2, 1)    # maxpool -> 56
    widths = [64, 128, 256, 512]
    in_ch = 64
    for stage, width in enumerate(widths, start=1):
        for block in range(2):
            stride = 2 if stage > 1 and block == 0 else 1
            prefix = f"layer{stage}.{block}"
            net.layers.append(LayerSpec(
                f"{prefix}.conv1", in_ch, width, 3, stride, 1, s,
            ))
            s_out = _out(s, 3, stride, 1)
            net.layers.append(LayerSpec(
                f"{prefix}.conv2", width, width, 3, 1, 1, s_out,
            ))
            if stride != 1 or in_ch != width:
                net.layers.append(LayerSpec(
                    f"{prefix}.downsample", in_ch, width, 1, stride, 0, s,
                    kind="pointwise",
                ))
            in_ch = width
            s = s_out
    net.layers.append(LayerSpec("fc", 512, 1000, 1, 1, 0, 1, kind="fc"))
    return net


#: MobileNet-V1 body: (out_channels, stride) of each depthwise-separable
#: block after the 32-channel stem.
_MOBILENET_BLOCKS = [
    (64, 1), (128, 2), (128, 1), (256, 2), (256, 1), (512, 2),
    (512, 1), (512, 1), (512, 1), (512, 1), (512, 1),
    (1024, 2), (1024, 1),
]


def mobilenet_v1() -> NetworkInventory:
    """MobileNet-V1 (width 1.0), 224x224 input."""
    net = NetworkInventory("mobilenet_v1")
    net.layers.append(LayerSpec("conv1", 3, 32, 3, 2, 1, 224))
    s = _out(224, 3, 2, 1)  # 112
    in_ch = 32
    for i, (out_ch, stride) in enumerate(_MOBILENET_BLOCKS, start=1):
        net.layers.append(LayerSpec(
            f"dw{i}", in_ch, in_ch, 3, stride, 1, s,
            groups=in_ch, kind="depthwise",
        ))
        s = _out(s, 3, stride, 1)
        net.layers.append(LayerSpec(
            f"pw{i}", in_ch, out_ch, 1, 1, 0, s, kind="pointwise",
        ))
        in_ch = out_ch
    net.layers.append(LayerSpec("fc", 1024, 1000, 1, 1, 0, 1, kind="fc"))
    return net


def regnet_x_400mf() -> NetworkInventory:
    """RegNet-X-400MF: widths [32, 64, 160, 400], depths [1, 2, 7, 12],
    group width 16 (Radosavovic et al. design space)."""
    net = NetworkInventory("regnet_x_400mf")
    net.layers.append(LayerSpec("stem", 3, 32, 3, 2, 1, 224))
    s = _out(224, 3, 2, 1)  # 112
    widths = [32, 64, 160, 400]
    depths = [1, 2, 7, 12]
    group_width = 16
    in_ch = 32
    for stage, (width, depth) in enumerate(zip(widths, depths), start=1):
        groups = width // group_width
        for block in range(depth):
            stride = 2 if block == 0 else 1
            prefix = f"s{stage}.b{block}"
            net.layers.append(LayerSpec(
                f"{prefix}.conv1", in_ch, width, 1, 1, 0, s,
                kind="pointwise",
            ))
            net.layers.append(LayerSpec(
                f"{prefix}.conv2", width, width, 3, stride, 1, s,
                groups=groups,
            ))
            s_out = _out(s, 3, stride, 1)
            net.layers.append(LayerSpec(
                f"{prefix}.conv3", width, width, 1, 1, 0, s_out,
                kind="pointwise",
            ))
            if stride != 1 or in_ch != width:
                net.layers.append(LayerSpec(
                    f"{prefix}.shortcut", in_ch, width, 1, stride, 0, s,
                    kind="pointwise",
                ))
            in_ch = width
            s = s_out
    net.layers.append(LayerSpec("fc", 400, 1000, 1, 1, 0, 1, kind="fc"))
    return net


#: EfficientNet-B0 stages: (expansion, out_channels, repeats, stride,
#: kernel) per MBConv stage.
_EFFICIENTNET_STAGES = [
    (1, 16, 1, 1, 3),
    (6, 24, 2, 2, 3),
    (6, 40, 2, 2, 5),
    (6, 80, 3, 2, 3),
    (6, 112, 3, 1, 5),
    (6, 192, 4, 2, 5),
    (6, 320, 1, 1, 3),
]


def efficientnet_b0() -> NetworkInventory:
    """EfficientNet-B0 (MBConv + squeeze-excite), 224x224 input."""
    net = NetworkInventory("efficientnet_b0")
    net.layers.append(LayerSpec("stem", 3, 32, 3, 2, 1, 224))
    s = _out(224, 3, 2, 1)  # 112
    in_ch = 32
    blk = 0
    for expansion, out_ch, repeats, first_stride, kernel in \
            _EFFICIENTNET_STAGES:
        for rep in range(repeats):
            stride = first_stride if rep == 0 else 1
            mid = in_ch * expansion
            prefix = f"mb{blk}"
            if expansion != 1:
                net.layers.append(LayerSpec(
                    f"{prefix}.expand", in_ch, mid, 1, 1, 0, s,
                    kind="pointwise",
                ))
            net.layers.append(LayerSpec(
                f"{prefix}.dw", mid, mid, kernel, stride,
                kernel // 2, s, groups=mid, kind="depthwise",
            ))
            s_out = _out(s, kernel, stride, kernel // 2)
            # Squeeze-and-excite: two 1x1 convs over pooled features.
            se = max(1, in_ch // 4)
            net.layers.append(LayerSpec(
                f"{prefix}.se_reduce", mid, se, 1, 1, 0, 1,
                kind="pointwise",
            ))
            net.layers.append(LayerSpec(
                f"{prefix}.se_expand", se, mid, 1, 1, 0, 1,
                kind="pointwise",
            ))
            net.layers.append(LayerSpec(
                f"{prefix}.project", mid, out_ch, 1, 1, 0, s_out,
                kind="pointwise",
            ))
            in_ch = out_ch
            s = s_out
            blk += 1
    net.layers.append(LayerSpec("head", 320, 1280, 1, 1, 0, s,
                                kind="pointwise"))
    net.layers.append(LayerSpec("fc", 1280, 1000, 1, 1, 0, 1, kind="fc"))
    return net


#: Registry of the six evaluated workloads (Section IV).
NETWORKS: dict[str, Callable[[], NetworkInventory]] = {
    "alexnet": alexnet,
    "vgg16": vgg16,
    "resnet18": resnet18,
    "mobilenet_v1": mobilenet_v1,
    "regnet_x_400mf": regnet_x_400mf,
    "efficientnet_b0": efficientnet_b0,
}

#: Display names as the paper writes them.
DISPLAY_NAMES = {
    "alexnet": "AlexNet",
    "vgg16": "VGG-16",
    "resnet18": "ResNet-18",
    "mobilenet_v1": "MobileNet-V1",
    "regnet_x_400mf": "RegNet-x-400mf",
    "efficientnet_b0": "EfficientNet-B0",
}


def get_network(name: str) -> NetworkInventory:
    """Build one of the six evaluated workloads by name."""
    try:
        return NETWORKS[name]()
    except KeyError:
        raise KeyError(
            f"unknown network {name!r}; choose from {sorted(NETWORKS)}"
        ) from None


def table3_convolution() -> LayerSpec:
    """The related-work convolution microbenchmark (Table III footnote):
    input 16x16x32, filter 64x3x3x32."""
    return LayerSpec("conv_bench", 32, 64, 3, 1, 1, 16)
