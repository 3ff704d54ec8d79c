"""Benchmark of the Mix-GEMM reproduction: host wall clock on the deployed
paths, with the paper's simulated cycles reported beside it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each exists):
``serve-r18-open``, ``batch-r18-b32``, ``guarded-r18-b8``, ``sim-fig6``.

One run:

1. isolates its environment: empty on-disk cost/tune caches in a fresh
   directory under ``.perfbench_out/``, single-threaded BLAS;
2. times the workload's set-up several times, each in a fresh process
   (:mod:`perfbench.setup_probe`), and keeps the median;
3. sets the workload up in this process, computes numpy-backend
   reference outputs, warms up, then measures for ``--seconds``; the
   CPU-bound closed loops also time a fixed host-speed kernel and
   rescale each second of their window to the reference host speed
   (:mod:`perfbench.hostspeed`); the open-loop serving workload reads
   its latency quantiles at zero stolen host time instead;
4. checks every output bit-exactly, and the modelled cycle count against
   ``perfbench/expected_cycles.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` splits the
window into alternating untraced and traced slices, wraps the public
calls of each runtime layer (see :mod:`perfbench.tracing`), reports the per-layer
metrics and writes the spans as Chrome trace-event JSON under
``.perfbench_out/``.  The last line of standard output is one JSON
object; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
EXPECTED_CYCLES = Path(__file__).resolve().parent / "expected_cycles.json"
#: Fresh-process set-ups per run; the median is reported.
SETUP_REPS = 7
#: Untimed operations before the window, so lazy set-up is done.
WARMUP_SECONDS = 0.5
#: Untraced/traced slice pairs a ``--trace 1`` window is split into.
TRACE_SLICES = 4

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "sim_cycles": "cycles",
    "peak_rss_mb": "MB",
    "ok_share": "fraction",
}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.build_s": "s",
    "setup.compile_s": "s",
    "setup.first_call_s": "s",
    "cost.calibrate_calls": "count",
    "cost.calibrate_s": "s",
    "serving.submit_us_p50": "us",
    "serving.wait_ms_p50": "ms",
    "serving.wait_ms_p90": "ms",
    "serving.batch_size_mean": "count",
    "serving.batches": "count",
    "plan.busy_frac": "fraction",
    "overload.queue_depth_max": "count",
    "overload.shed": "count",
    "loadgen.late_ms_max": "ms",
    "plan.run_ms_p50": "ms",
    "plan.conv_self_ms": "ms",
    "plan.linear_self_ms": "ms",
    "plan.generic_self_ms": "ms",
    "engine.run_ms_p50": "ms",
    "gemm.calls_per_run": "count",
    "gemm.ms_per_run": "ms",
    "gemm.share": "fraction",
    "packcache.hit_ratio": "fraction",
    "packcache.misses": "count",
    "engine.host_ns_per_sim_cycle": "ns",
    "engine.macs_per_cycle": "MAC/cycle",
    "engine.stall_buffer_full_cycles": "cycles",
    "engine.stall_get_cycles": "cycles",
    "trace.overhead_frac": "fraction",
    "host.kernel_ms": "ms",
}

#: Overload counters that mean a request was refused or shed.
SHED_COUNTERS = ("shed_deadline", "shed_capacity", "shed_closed",
                 "rejected", "admit_timeouts", "cancelled")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, 0.0 for an empty sample."""
    if not values:
        return 0.0
    import numpy as np
    return float(np.percentile(values, q * 100.0))


# -- environment --------------------------------------------------------------


def check_sources() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {ROOT / 'src'}")


def isolate_environment(tmp: Path) -> None:
    """Single-threaded BLAS and empty caches, before numpy is imported."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["MKL_NUM_THREADS"] = "1"
    os.environ["REPRO_COST_CACHE"] = str(tmp / "cost")
    os.environ["REPRO_TUNE_CACHE"] = str(tmp / "tune")
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def host_facts() -> dict:
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
    }


# -- set-up probes --------------------------------------------------------------


def run_setup_probes(name: str, seed: int, trace: bool, reps: int,
                     tmp: Path) -> list[dict]:
    """Time ``reps`` fresh-process set-ups, each with empty caches."""
    probes = []
    for rep in range(reps):
        cache = tmp / f"probe-{rep}"
        env = dict(os.environ, REPRO_COST_CACHE=str(cache / "cost"),
                   REPRO_TUNE_CACHE=str(cache / "tune"))
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).parent / "setup_probe.py"),
             name, str(seed), "1" if trace else "0"],
            env=env, cwd=str(ROOT), capture_output=True, text=True,
            timeout=120)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"setup probe failed ({proc.returncode}): "
                             f"{proc.stderr.strip()[-2000:]}")
        report = json.loads(lines[-1])
        marks = report["marks"]
        report["phases"] = {
            "setup.import_s": marks["import"] - start,
            "setup.build_s": marks["build"] - marks["import"],
            "setup.compile_s": marks["compile"] - marks["build"],
            "setup.first_call_s": marks["first_call"] - marks["compile"],
        }
        report["setup_s"] = marks["first_call"] - start
        probes.append(report)
    return probes


def median_probe(probes: list[dict]) -> dict:
    """The probe whose total is the median, so its phases add up to it."""
    ranked = sorted(probes, key=lambda p: p["setup_s"])
    return ranked[(len(ranked) - 1) // 2]


# -- tracing --------------------------------------------------------------------


def install_common_wraps(tracer) -> None:
    """Span every public layer call the per-layer metrics read."""
    import repro.analysis.cost.calibrate as calibrate
    from repro.core.gemm import MixGemm
    from repro.runtime.engine import InferenceEngine
    from repro.runtime.overload import AdmissionQueue
    from repro.runtime.plan import GraphPlan
    from repro.runtime.serving import BatchedServer

    tracer.wrap(GraphPlan, "run", "plan.run", annotate=lambda a, r: {
        "batch": int(a[1].shape[0]), "cycles": r.total_cycles})
    tracer.wrap(InferenceEngine, "run", "engine.run")
    tracer.wrap(MixGemm, "gemm", "gemm", annotate=lambda a, r: {
        "cycles": r.cycles, "macs": r.macs,
        "stall_buffer_full": r.pmu.buffer_full_stall_cycles,
        "stall_get": r.pmu.get_stall_cycles})
    tracer.wrap(BatchedServer, "submit", "serving.submit")
    tracer.wrap(AdmissionQueue, "put", "overload.put",
                annotate=lambda a, r: {"depth": a[0].qsize()})
    tracer.wrap(calibrate, "calibrate_tile", "cost.calibrate")


def shed_count(workload) -> int:
    server = getattr(workload, "server", None)
    if server is None:
        return 0
    counters = server.overload_snapshot()["counters"]
    return sum(counters.get(key, 0) for key in SHED_COUNTERS)


def layer_metrics(workload, tracer, untraced, traced, probe,
                  pack_delta, shed) -> dict:
    """Per-layer numbers from the traced window and the median probe."""
    from perfbench.workloads import ServeWorkload

    m = dict(probe["phases"])
    m["cost.calibrate_calls"] = probe.get("calibrate_calls", 0)
    m["cost.calibrate_s"] = probe.get("calibrate_s", 0.0)

    runs = tracer.named("plan.run")
    serving = isinstance(workload, ServeWorkload)
    waits = [lat - span.dur for lat, span in traced.carried]
    depths = [s.args["depth"] for s in tracer.named("overload.put")]
    m["serving.submit_us_p50"] = 1e6 * quantile(
        [s.dur for s in tracer.named("serving.submit")], 0.5)
    m["serving.wait_ms_p50"] = 1e3 * quantile(waits, 0.5)
    m["serving.wait_ms_p90"] = 1e3 * quantile(waits, 0.9)
    m["serving.batches"] = len(runs) if serving else 0
    m["serving.batch_size_mean"] = (
        statistics.fmean(s.args["batch"] for s in runs)
        if serving and runs else 0.0)
    workers = getattr(workload, "workers", 1)
    m["plan.busy_frac"] = (sum(s.dur for s in runs)
                           / (traced.seconds * workers)
                           if traced.seconds > 0 else 0.0)
    m["overload.queue_depth_max"] = max(depths, default=0)
    m["overload.shed"] = shed
    m["loadgen.late_ms_max"] = 1e3 * max(traced.late, default=0.0)

    m["plan.run_ms_p50"] = 1e3 * quantile([s.dur for s in runs], 0.5)
    own = tracer.self_times()
    for kind in ("conv", "linear", "generic"):
        steps = tracer.named(f"plan.step.{kind}")
        m[f"plan.{kind}_self_ms"] = (
            1e3 * sum(own[s.id] for s in steps) / len(runs)
            if runs else 0.0)

    engine_runs = tracer.named("engine.run")
    gemms = tracer.named("gemm")
    engine_s = sum(s.dur for s in engine_runs)
    by_id = {s.id: s for s in tracer.spans}
    inner = [g for g in gemms if tracer.ancestor(g, "engine.run", by_id)]
    m["engine.run_ms_p50"] = 1e3 * quantile(
        [s.dur for s in engine_runs], 0.5)
    m["gemm.calls_per_run"] = (len(inner) / len(engine_runs)
                               if engine_runs else 0.0)
    m["gemm.ms_per_run"] = (1e3 * sum(g.dur for g in inner)
                            / len(engine_runs) if engine_runs else 0.0)
    m["gemm.share"] = (sum(g.dur for g in inner) / engine_s
                       if engine_s > 0 else 0.0)
    hits, misses = pack_delta
    m["packcache.hit_ratio"] = (hits / (hits + misses)
                                if hits + misses else 0.0)
    m["packcache.misses"] = misses

    cycles = sum(g.args["cycles"] for g in gemms)
    m["engine.host_ns_per_sim_cycle"] = (
        1e9 * sum(g.dur for g in gemms) / cycles if cycles else 0.0)
    m["engine.macs_per_cycle"] = (
        sum(g.args["macs"] for g in gemms) / cycles if cycles else 0.0)
    # Exact modelled counts: the GEMMs of the first traced operation on
    # each item of the fixed input set, whatever the window length.
    first_ops: dict[int, int] = {}
    for op in tracer.named("op"):
        first_ops.setdefault(op.args["item"], op.id)
    firsts = set(first_ops.values())
    first_pass = [g for g in gemms
                  if (op := tracer.ancestor(g, "op", by_id)) is not None
                  and op.id in firsts]
    m["engine.stall_buffer_full_cycles"] = sum(
        g.args["stall_buffer_full"] for g in first_pass)
    m["engine.stall_get_cycles"] = sum(
        g.args["stall_get"] for g in first_pass)

    base = quantile(untraced.latencies, 0.5)
    m["trace.overhead_frac"] = (quantile(traced.latencies, 0.5) / base
                                - 1.0 if base > 0 else 0.0)
    m["host.kernel_ms"] = 1e3 * statistics.median(untraced.host_kernel)
    return m


def pack_counts(workload) -> tuple[int, int]:
    stats = workload.pack_stats()
    return (stats.hits, stats.misses) if stats is not None else (0, 0)


def traced_windows(workload, seconds: float, tracer):
    """Alternate untraced and traced slices of the window.

    Alternating keeps drift in host speed out of the traced/untraced
    comparison.  Returns both merged windows plus the pack-cache
    (hits, misses) and shed counts seen while tracing.
    """
    from perfbench.workloads import Window

    untraced, traced = Window(), Window()
    hits = misses = shed = 0
    slice_s = seconds / (2 * TRACE_SLICES)
    for _ in range(TRACE_SLICES):
        untraced.merge(workload.measure(slice_s))
        install_common_wraps(tracer)
        workload.instrument(tracer)
        pack_before, shed_before = pack_counts(workload), shed_count(workload)
        try:
            traced.merge(workload.measure(slice_s, tracer))
        finally:
            workload.uninstrument()
            tracer.restore()
        pack_after = pack_counts(workload)
        hits += pack_after[0] - pack_before[0]
        misses += pack_after[1] - pack_before[1]
        shed += shed_count(workload) - shed_before
    return untraced, traced, (hits, misses), shed


# -- the run --------------------------------------------------------------------


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, *,
                  tmp: Path, setup_reps: int = SETUP_REPS) -> dict:
    """One benchmark run; returns the result object ``main`` prints."""
    import repro
    from perfbench import workloads
    from perfbench.hostspeed import (
        REFERENCE_S,
        rescaled,
        steal_free_quantile,
    )
    from perfbench.tracing import Tracer

    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise BenchError(f"repro imported from {repro.__file__}, "
                         f"not from {src}")
    if name not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}")

    probes = run_setup_probes(name, seed, trace, setup_reps, tmp)
    errors = [f"setup probe {i}: first result differs from the reference"
              for i, p in enumerate(probes) if not p["ok"]]

    workload = workloads.make(name, seed)
    workload.build()
    try:
        workload.compile()
        workload.first_call()
        workload.prepare_references()
        workload.measure(WARMUP_SECONDS)
        if not trace:
            window = workload.measure(seconds)
            windows = [window]
        else:
            tracer = Tracer()
            untraced, traced, pack_delta, shed = traced_windows(
                workload, seconds, tracer)
            windows = [untraced, traced]
            window = untraced
        sim_cycles = workload.sim_cycles(window)
    finally:
        workload.close()

    expected = json.loads(EXPECTED_CYCLES.read_text()).get(name)
    if sim_cycles != expected:
        window.fail(f"sim_cycles {sim_cycles} != expected {expected} "
                    f"({EXPECTED_CYCLES.name}): the modelled design changed")
    attempted = sum(w.attempted for w in windows) + len(probes)
    failed = sum(w.failed for w in windows) + len(errors)
    for w in windows:
        errors.extend(w.errors)

    if trace:
        values = layer_metrics(workload, tracer, untraced, traced,
                               median_probe(probes), pack_delta, shed)
        units = PER_LAYER
        facts = host_facts()
        tracer.write_chrome(
            str(OUT_DIR / f"trace-{name}-seed{seed}.json"),
            dict(facts, workload=name, seed=seed, seconds=seconds))
    else:
        # CPU-bound times are rescaled to the reference host speed, and
        # a closed loop's throughput is the rescaled time its operations
        # took.  Open-loop latency is read at zero stolen time instead.
        if workload.cpu_bound:
            lat = rescaled(window.slices)
            p50, p90 = quantile(lat, 0.5), quantile(lat, 0.9)
            busy_s = sum(lat)
        else:
            p50, p90 = (steal_free_quantile(window.slices, q)
                        for q in (0.5, 0.9))
            busy_s = window.seconds
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "latency_p50_ms": 1e3 * p50,
            "latency_p90_ms": 1e3 * p90,
            "throughput_per_s": (window.completed_ok
                                 * workload.samples_per_op / busy_s),
            "sim_cycles": sim_cycles,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": (attempted - failed) / attempted,
        }
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
        "samples": {"operations": len(window.latencies),
                    "raw_p50_ms": 1e3 * quantile(window.latencies, 0.5),
                    "raw_p90_ms": 1e3 * quantile(window.latencies, 0.9),
                    "setup_probes": len(probes),
                    "host_kernel_ms": 1e3 * statistics.median(
                        window.host_kernel),
                    "reference_kernel_ms": 1e3 * REFERENCE_S},
        "errors": errors,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_sources()
        OUT_DIR.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
        try:
            isolate_environment(tmp)
            result = run_benchmark(args.workload, args.seed, args.seconds,
                                   bool(args.trace), tmp=tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failed_share = result["failed"] / result["attempted"]
    print(f"# host {json.dumps(host_facts())}")
    samples = result["samples"]
    print(f"# {args.workload}: {samples['operations']} timed operations, "
          f"{samples['setup_probes']} set-up probes, host kernel "
          f"{samples['host_kernel_ms']:.3f} ms (reference "
          f"{samples['reference_kernel_ms']:g} ms), raw latency p50 "
          f"{samples['raw_p50_ms']:.3f} ms p90 {samples['raw_p90_ms']:.3f} "
          f"ms, "
          f"failed_share {failed_share:g}")
    for error in result["errors"]:
        print(f"# FAILED {error}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
