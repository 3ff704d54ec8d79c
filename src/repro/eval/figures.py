"""Figure regenerators: the series behind Figures 6 and 7.

Each function returns structured rows (dataclasses) that the benchmark
harness prints in the same shape the paper plots; ``repro.eval.reporting``
renders them as text tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.scalar import (
    ScalarGemmModel,
    blis_dgemm_kernel,
    blis_int8_kernel,
    openblas_fp32_u740_kernel,
)
from repro.core.config import MixGemmConfig
from repro.models.inventory import get_network
from repro.sim.perf import MixGemmPerfModel

from .accuracy import CONFIG_LADDER, top1_accuracy
from .pareto import ParetoPoint, pareto_frontier
from .workloads import (
    FIGURE6_CONFIG_PAIRS,
    FIGURE6_SIZES,
    NETWORK_ORDER,
)


# ---------------------------------------------------------------------------
# Figure 6: Mix-GEMM speed-up over BLIS DGEMM on square matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure6Point:
    """One point of one Figure 6 series."""

    config: str
    size: int
    speedup: float
    mix_gops: float
    baseline_gops: float


def figure6(
    sizes: tuple[int, ...] = FIGURE6_SIZES,
    config_pairs=FIGURE6_CONFIG_PAIRS,
    *,
    perf_model: MixGemmPerfModel | None = None,
) -> list[Figure6Point]:
    """The 12 Figure 6 speed-up series over the DGEMM baseline."""
    mix = perf_model or MixGemmPerfModel()
    baseline = ScalarGemmModel(blis_dgemm_kernel())
    points = []
    for size in sizes:
        base = baseline.gemm(size, size, size)
        for bw_a, bw_b in config_pairs:
            cfg = MixGemmConfig(bw_a=bw_a, bw_b=bw_b)
            result = mix.gemm(size, size, size, cfg)
            points.append(Figure6Point(
                config=cfg.name,
                size=size,
                speedup=base.total_cycles / result.total_cycles,
                mix_gops=result.gops,
                baseline_gops=base.gops,
            ))
    return points


def figure6_steady_state(
    points: list[Figure6Point] | None = None,
) -> dict[str, float]:
    """Largest-size speed-up per configuration (the paper's steady state:
    10.2x at a8-w8 up to 27.2x at a2-w2)."""
    points = points if points is not None else figure6()
    largest = max(p.size for p in points)
    return {p.config: p.speedup for p in points if p.size == largest}


def int8_blis_speedup(size: int = 2048) -> float:
    """BLIS re-typed to int8 vs DGEMM (paper: only ~2.5x on average)."""
    dgemm = ScalarGemmModel(blis_dgemm_kernel())
    int8 = ScalarGemmModel(blis_int8_kernel())
    return dgemm.gemm(size, size, size).total_cycles \
        / int8.gemm(size, size, size).total_cycles


# ---------------------------------------------------------------------------
# Figure 7: accuracy vs throughput Pareto frontier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure7Point:
    """One annotated point of Figure 7."""

    network: str
    config: str
    gops: float
    top1: float
    speedup_vs_fp32: float
    on_frontier: bool


def figure7(
    networks=NETWORK_ORDER,
    *,
    perf_model: MixGemmPerfModel | None = None,
) -> list[Figure7Point]:
    """Per-network (throughput, accuracy) points with the Pareto flags.

    The FP32 baseline is OpenBLAS on the SiFive U740, as in the paper.
    """
    mix = perf_model or MixGemmPerfModel()
    fp32 = ScalarGemmModel(openblas_fp32_u740_kernel())
    out: list[Figure7Point] = []
    for name in networks:
        inventory = get_network(name)
        fp32_gops = fp32.network(inventory).gops
        candidates = []
        for bw_a, bw_b in CONFIG_LADDER:
            cfg = MixGemmConfig(bw_a=bw_a, bw_b=bw_b)
            gops = mix.network(inventory, cfg).gops
            candidates.append(ParetoPoint(
                label=cfg.name,
                throughput=gops,
                accuracy=top1_accuracy(name, bw_a, bw_b),
            ))
        frontier = {p.label for p in pareto_frontier(candidates)}
        for p in candidates:
            out.append(Figure7Point(
                network=name,
                config=p.label,
                gops=p.throughput,
                top1=p.accuracy,
                speedup_vs_fp32=p.throughput / fp32_gops,
                on_frontier=p.label in frontier,
            ))
    return out


def figure7_speedup_ranges(
    points: list[Figure7Point] | None = None,
) -> dict[str, tuple[float, float]]:
    """Min/max speed-up over FP32 per network (paper: 5.3x to 15.1x)."""
    points = points if points is not None else figure7()
    out: dict[str, tuple[float, float]] = {}
    for name in {p.network for p in points}:
        values = [p.speedup_vs_fp32 for p in points if p.network == name]
        out[name] = (min(values), max(values))
    return out
