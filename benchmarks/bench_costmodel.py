"""Cost report: predicted vs event-engine measured cycles.

Differential check of :mod:`repro.analysis.cost`: for a sweep of
bitwidth pairs x blocking points x GEMM shapes, compare
:func:`repro.analysis.cost.predict_gemm` (the fast path's engine-timed
tiles, one memoized engine run per tile signature and group count)
against the cycle-faithful event engine running the whole GEMM.  Smoke
mode sweeps a representative subset; full mode covers every 2..8-bit
pair.  Predictions are exact by construction (36/36 smoke, 441/441
full); the gate below only guards against a regression.

Gate (recorded in ``BENCH_costmodel.json`` at the repo root): median
error < 1%, max error < 5% across the sweep.

Run standalone for the full sweep::

    PYTHONPATH=src python benchmarks/bench_costmodel.py

or ``--smoke`` for the CI gate.  Under pytest, ``test_costmodel_smoke``
runs the gate and writes ``results/costmodel.txt``.
"""

import argparse
import json
import pathlib
import statistics

import numpy as np

from repro.core.config import BlockingParams, MixGemmConfig
from repro.core.gemm import MixGemm

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
JSON_PATH = REPO_ROOT / "BENCH_costmodel.json"
RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "costmodel.txt"

TARGETS = {
    "median_error_pct": 1.0,
    "max_error_pct": 5.0,
}

#: Representative subset for the CI smoke gate (symmetric, asymmetric,
#: and the extreme pairs).
SMOKE_BITWIDTHS = [(8, 8), (8, 4), (6, 4), (5, 3), (4, 4), (2, 2)]

#: Differential-study GEMM shapes (m, n, k): one tile-aligned, one with
#: ragged edge tiles, one deep-K that crosses kc-block boundaries.
SHAPES = [(16, 16, 96), (12, 8, 128), (8, 8, 520)]

#: Blocking points for the differential sweep: kc is the axis that
#: moves the kc-block structure; mc/nc ride along once.
BLOCKINGS = [BlockingParams(mc=16, nc=16, kc=kc) for kc in (8, 64, 256)]


def _full_bitwidths():
    return [(a, w) for a in range(2, 9) for w in range(2, 9)]


def differential_study(bitwidths, *, shapes=SHAPES,
                       blockings=BLOCKINGS, seed=0) -> dict:
    """Predicted vs event-measured cycles across the sweep."""
    from repro.analysis.cost import predict_gemm

    rng = np.random.default_rng(seed)
    rows = []
    for bw_a, bw_b in bitwidths:
        for blocking in blockings:
            for m, n, k in shapes:
                cfg = MixGemmConfig(bw_a=bw_a, bw_b=bw_b,
                                    blocking=blocking)
                a = rng.integers(-(1 << (bw_a - 1)), 1 << (bw_a - 1),
                                 size=(m, k))
                b = rng.integers(-(1 << (bw_b - 1)), 1 << (bw_b - 1),
                                 size=(k, n))
                measured = MixGemm(cfg, emulate_datapath=False,
                                   backend="event").gemm(a, b).cycles
                predicted = predict_gemm(cfg, None, m, n, k).cycles
                err = abs(predicted - measured) / max(measured, 1) * 100
                rows.append({
                    "config": cfg.name, "kc": blocking.kc,
                    "m": m, "n": n, "k": k,
                    "measured": int(measured),
                    "predicted": int(predicted),
                    "error_pct": err,
                })
    errors = [r["error_pct"] for r in rows]
    return {
        "points": len(rows),
        "median_error_pct": statistics.median(errors),
        "max_error_pct": max(errors),
        "exact_points": sum(1 for e in errors if e == 0.0),
        "rows": rows,
    }


def run_suite(*, smoke: bool = False) -> dict:
    bitwidths = SMOKE_BITWIDTHS if smoke else _full_bitwidths()
    shapes = SHAPES[:2] if smoke else SHAPES
    differential = differential_study(bitwidths, shapes=shapes)
    return {
        "generated_by": "benchmarks/bench_costmodel.py",
        "mode": "smoke" if smoke else "full",
        "targets": TARGETS,
        "differential": differential,
    }


def check_gate(payload: dict) -> list:
    """Return the violations (empty list = gate passes)."""
    problems = []
    diff = payload["differential"]
    if diff["median_error_pct"] >= TARGETS["median_error_pct"]:
        problems.append(
            f"median prediction error {diff['median_error_pct']:.3f}% "
            f">= {TARGETS['median_error_pct']}% bound")
    if diff["max_error_pct"] >= TARGETS["max_error_pct"]:
        problems.append(
            f"max prediction error {diff['max_error_pct']:.3f}% "
            f">= {TARGETS['max_error_pct']}% bound")
    return problems


def render(payload: dict) -> str:
    diff = payload["differential"]
    lines = [
        "Closed-form cost model vs event engine",
        f"(mode: {payload['mode']})",
        "",
        f"differential: {diff['points']} points, median error "
        f"{diff['median_error_pct']:.4f}%, max "
        f"{diff['max_error_pct']:.4f}% "
        f"({diff['exact_points']} bit-exact predictions)",
    ]
    return "\n".join(lines)


def write_artifacts(payload: dict) -> None:
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(render(payload) + "\n")


# -- pytest entry point (CI cost-smoke job) -----------------------------------


def test_costmodel_smoke(save_result):
    payload = run_suite(smoke=True)
    write_artifacts(payload)
    save_result("costmodel", render(payload))
    assert check_gate(payload) == []


# -- standalone entry point ---------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="representative subset + regression gate "
                             "(CI)")
    args = parser.parse_args(argv)

    payload = run_suite(smoke=args.smoke)
    write_artifacts(payload)
    print(render(payload))
    print(f"\nwrote {JSON_PATH} and {RESULTS_PATH}")
    problems = check_gate(payload)
    for problem in problems:
        print(f"GATE FAILURE: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
