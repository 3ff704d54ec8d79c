"""Benchmark workload definitions (Section IV).

* Figure 6 sweeps square GEMMs "with 64 to 2048 elements per dimension"
  over 12 activation/weight combinations;
* Table III's microbenchmark is a single convolution (16x16x32 input,
  64x3x3x32 filter), :func:`repro.models.inventory.table3_convolution`;
* Figure 7 / Table III evaluate the six CNN inventories.
"""

from __future__ import annotations

from repro.core.config import FIGURE6_CONFIGS

#: Square matrix sizes of the Figure 6 sweep.
FIGURE6_SIZES = (64, 128, 256, 512, 1024, 2048)

#: The 12 (activations, weights) combinations Figure 6 plots.
FIGURE6_CONFIG_PAIRS = FIGURE6_CONFIGS

#: Network keys in the paper's presentation order.
NETWORK_ORDER = (
    "alexnet", "vgg16", "resnet18", "mobilenet_v1",
    "regnet_x_400mf", "efficientnet_b0",
)
