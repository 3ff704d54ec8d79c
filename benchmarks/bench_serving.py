"""Wall-clock behaviour of batched multi-worker serving.

Three measurements, all of the *simulator/runtime itself* (host
seconds), not the modelled hardware:

1. **Worker scaling** -- serving throughput of the batched
   multi-worker runtime (:mod:`repro.runtime.serving`) across worker
   counts (p50/p95/p99 latency and shed rate per row), demonstrating
   that plan replicas behind a shared packing cache turn compilation
   into serving capacity.
2. **Overload behavior** -- the server driven at ~10x its sustained
   capacity under the ``reject`` admission policy with per-request
   deadlines.  The gate checks *graceful* degradation: queue depth
   never exceeds the configured bound, the shed counters are non-zero
   (admission control actually engaged), no future is lost, and the
   p99 latency of admitted requests stays within 2x the deadline.
3. **Process scaling** -- the process-sharded server
   (:mod:`repro.runtime.sharding`) across worker-process counts, every
   row checked bit-exact against the single-worker reference, plus the
   zero-copy plan-memory proof: one shared segment, zero private plan
   bytes per worker, no leaked ``/dev/shm`` entries after teardown.
   Thread workers only overlap inside GIL-releasing numpy sections;
   process workers own whole cores, so this is the study where worker
   counts buy real throughput on multi-core hosts.

Targets (recorded in ``BENCH_serving.json`` at the repo root):

* process scaling >= 2.5x at 4 workers (full run, >= 4-core host) and
  >= 1.8x on the CI smoke gate.  The multiplier gates only apply when
  ``os.cpu_count() >= 4`` -- on fewer cores the rows are still
  measured and the exactness/zero-copy/no-leak gates still bind, but a
  scaling multiplier would be measuring the scheduler, not the server.
  Run the scaling study with ``OMP_NUM_THREADS=1`` (and
  ``OPENBLAS_NUM_THREADS=1``): a multi-threaded BLAS already eats the
  spare cores at 1 worker and flattens the apparent scaling.

Run standalone for the full sweep::

    PYTHONPATH=src python benchmarks/bench_serving.py

or ``--smoke`` / ``--mode smoke`` for the CI gate.  Under pytest,
``test_serving_smoke`` runs the gate and writes ``results/serving.txt``
and ``test_scaling_smoke`` runs the process-scaling gate.  Bit-exactness
of the plans themselves is covered by the tier-1 tests and the slow
rows of the plan differential matrix
(``tests/runtime/test_plan_matrix.py -m slow``).
"""

import argparse
import json
import os
import pathlib

import numpy as np

from repro.models.builders import build_tiny
from repro.nn.layers import seed_init
from repro.runtime import export_model
from repro.runtime.serving import BatchedServer, scaling_sweep
from repro.runtime.sharding import ShardedServer

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
JSON_PATH = REPO_ROOT / "BENCH_serving.json"
RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "serving.txt"

#: Acceptance thresholds; the smoke gate is the CI-enforced floor.
TARGETS = {"process_scaling": 2.5, "process_scaling_smoke": 1.8,
           "plan_private_fraction": 0.10}

#: Scaling multipliers only bind on hosts with at least this many
#: cores; below it there is no parallel capacity to measure.
MIN_SCALING_CPUS = 4

def _resnet_graph(arch: str = "resnet18"):
    seed_init(13)
    model = build_tiny(arch, act_bits=8, weight_bits=8)
    model.eval()
    return export_model(model, name=arch)


def worker_scaling_study(graph, *, requests: int = 64, size: int = 12,
                         seed: int = 1,
                         worker_counts=(1, 2, 4)) -> list[dict]:
    """Serving throughput rows across worker-pool widths."""
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal((1, size, size))
              for _ in range(requests)]
    return scaling_sweep(graph, inputs, worker_counts=worker_counts,
                         max_batch=8, max_wait_ms=2.0,
                         backend="mixgemm")


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def process_scaling_study(graph, *, requests: int = 64, size: int = 12,
                          seed: int = 3,
                          worker_counts=(1, 2, 4)) -> dict:
    """Process-sharded throughput rows + the zero-copy memory proof.

    Every row is served from the same input set; outputs are checked
    bit-exact against the single-worker reference row.  Per row the
    dispatcher's :meth:`ShardedServer.plan_memory_report` records the
    segment size and each worker's shared/private plan-byte split --
    the deterministic one-copy proof (address-range accounting, immune
    to allocator noise) -- alongside per-worker RSS for context.
    """
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal((1, size, size))
              for _ in range(requests)]
    shm_before = _shm_entries()
    reference = None
    rows = []
    for workers in worker_counts:
        with ShardedServer(graph, workers=workers, max_batch=8,
                           max_wait_ms=2.0,
                           backend="mixgemm") as server:
            report = server.run_requests(inputs)
            memory = server.plan_memory_report()
        if reference is None:
            reference = report.outputs
        s = report.stats
        worker_rows = memory["workers"]
        rows.append({
            "workers": workers,
            "requests": s.requests,
            "served": s.served,
            "lost_futures": s.requests - s.served - s.shed_total,
            "throughput_rps": s.throughput_rps,
            "latency_p50_ms": s.latency_p50_ms,
            "latency_p95_ms": s.latency_p95_ms,
            "latency_p99_ms": s.latency_p99_ms,
            "mean_batch_size": s.mean_batch_size,
            "bit_exact_vs_single_worker": bool(all(
                np.array_equal(a, b)
                for a, b in zip(reference, report.outputs))),
            "segment_bytes": memory["segment_bytes"],
            "plan_bytes_total": sum(w["plan_bytes_total"]
                                    for w in worker_rows),
            "plan_bytes_private_max": max(
                (w["plan_bytes_private"] for w in worker_rows),
                default=0),
            "worker_rss_bytes": [w["rss_bytes"] for w in worker_rows],
            "dispatcher_rss_bytes": memory["dispatcher_rss_bytes"],
        })
    return {
        "worker_counts": list(worker_counts),
        "rows": rows,
        "leaked_segments": sorted(_shm_entries() - shm_before),
    }


def check_process_scaling_gate(ps: dict, *, host_cpus: int,
                               min_scaling: float) -> list:
    """Gate the process-scaling study (empty list = passes).

    Exactness, zero lost futures, the zero-copy bound and segment
    hygiene bind unconditionally; the throughput multiplier only binds
    on hosts with >= MIN_SCALING_CPUS cores.
    """
    problems = []
    by_workers = {r["workers"]: r for r in ps["rows"]}
    for r in ps["rows"]:
        if not r["bit_exact_vs_single_worker"]:
            problems.append(
                f"{r['workers']}-worker outputs diverge from the "
                f"single-worker reference")
        if r["lost_futures"] != 0:
            problems.append(
                f"{r['lost_futures']} futures lost at "
                f"{r['workers']} workers")
        bound = TARGETS["plan_private_fraction"] * r["segment_bytes"]
        if r["plan_bytes_private_max"] > bound:
            problems.append(
                f"worker holds {r['plan_bytes_private_max']} private "
                f"plan bytes at {r['workers']} workers (> "
                f"{TARGETS['plan_private_fraction']:.0%} of the "
                f"{r['segment_bytes']}-byte segment)")
    if ps["leaked_segments"]:
        problems.append(
            f"leaked /dev/shm segments after teardown: "
            f"{ps['leaked_segments']}")
    lo = by_workers.get(1)
    hi = by_workers.get(max(by_workers))
    if lo is None or hi is None or hi["workers"] == 1:
        problems.append("process scaling needs a 1-worker and a "
                        "multi-worker row")
    elif host_cpus >= MIN_SCALING_CPUS:
        ratio = hi["throughput_rps"] / lo["throughput_rps"]
        if ratio < min_scaling:
            problems.append(
                f"process scaling {ratio:.2f}x at {hi['workers']} "
                f"workers below the {min_scaling:.1f}x gate")
    return problems


def overload_study(graph, *, requests: int = 160, size: int = 12,
                   seed: int = 2, workers: int = 2,
                   queue_capacity: int = 8,
                   deadline_ms: float = 500.0) -> dict:
    """Drive the server far past capacity; record how it degrades.

    ``requests`` is sized ~10x what ``workers * queue_capacity`` can
    hold, submitted as one burst under the ``reject`` policy, so
    admission control *must* engage for the run to stay bounded.
    """
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal((1, size, size))
              for _ in range(requests)]
    with BatchedServer(graph, workers=workers, max_batch=4,
                       max_wait_ms=1.0, queue_capacity=queue_capacity,
                       admission="reject",
                       backend="mixgemm") as server:
        report = server.run_requests(inputs, deadline_ms=deadline_ms,
                                     tolerate_overload=True)
    s = report.stats
    # "Zero lost futures": every submitted slot resolved to exactly one
    # of a response or a structured overload error.
    resolved = sum((r is not None) != (e is not None)
                   for r, e in zip(report.responses, report.errors))
    return {
        "requests": requests, "workers": workers,
        "queue_capacity": queue_capacity, "deadline_ms": deadline_ms,
        "admission": "reject",
        "served": s.served, "shed_total": s.shed_total,
        "shed_rate": s.shed_rate, "rejected": s.rejected,
        "shed_deadline": s.shed_deadline,
        "max_queue_depth": s.max_queue_depth,
        "latency_p99_ms": s.latency_p99_ms,
        "resolved": resolved,
        "lost_futures": requests - resolved,
    }


def run_suite(*, requests: int = 64, smoke: bool = False) -> dict:
    """Assemble the full payload written to ``BENCH_serving.json``."""
    graph = _resnet_graph()
    thread_counts = (1, 2) if smoke else (1, 2, 4)
    process_counts = (1, 4) if smoke else (1, 2, 4)
    if smoke:
        scaling = worker_scaling_study(graph, requests=requests // 2,
                                       worker_counts=thread_counts)
        processes = process_scaling_study(graph,
                                          requests=requests,
                                          worker_counts=process_counts)
        overload = overload_study(graph, requests=80, workers=1,
                                  queue_capacity=4)
    else:
        scaling = worker_scaling_study(graph, requests=requests,
                                       worker_counts=thread_counts)
        processes = process_scaling_study(graph,
                                          requests=2 * requests,
                                          worker_counts=process_counts)
        overload = overload_study(graph)
    return {
        "generated_by": "benchmarks/bench_serving.py",
        "mode": "smoke" if smoke else "full",
        "arch": "resnet18",
        # Worker scaling is only meaningful on multi-core hosts: the
        # thread pool overlaps GIL-releasing numpy kernels and the
        # process shards own whole cores, but a single-CPU machine
        # measures pure dispatch overhead either way.
        "host_cpus": os.cpu_count(),
        "worker_counts": {"threads": list(thread_counts),
                          "processes": list(process_counts)},
        "targets": TARGETS,
        "worker_scaling": scaling,
        "process_scaling": processes,
        "overload": overload,
    }


def render(payload: dict) -> str:
    lines = [
        f"Runtime wall-clock: batched serving ({payload['arch']}, "
        f"mode: {payload['mode']})",
        "",
        f"{'workers':>8} {'req/s':>9} {'p50 ms':>8} {'p95 ms':>8} "
        f"{'p99 ms':>8} {'shed':>6} {'mean batch':>11}",
    ]
    for r in payload["worker_scaling"]:
        lines.append(
            f"{r['workers']:>8} {r['throughput_rps']:9.0f} "
            f"{r['latency_p50_ms']:8.2f} {r['latency_p95_ms']:8.2f} "
            f"{r['latency_p99_ms']:8.2f} {r['shed_rate']:6.1%} "
            f"{r['mean_batch_size']:11.2f}")
    ps = payload["process_scaling"]
    lines += [
        "",
        f"{'procs':>8} {'req/s':>9} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'exact':>6} {'segment B':>10} {'private B':>10}",
    ]
    for r in ps["rows"]:
        lines.append(
            f"{r['workers']:>8} {r['throughput_rps']:9.0f} "
            f"{r['latency_p50_ms']:8.2f} {r['latency_p99_ms']:8.2f} "
            f"{str(r['bit_exact_vs_single_worker']):>6} "
            f"{r['segment_bytes']:>10} "
            f"{r['plan_bytes_private_max']:>10}")
    lines.append(
        f"(process rows: one shared plan segment, zero private plan "
        f"bytes per worker is the zero-copy proof; leaked segments: "
        f"{ps['leaked_segments'] or 'none'})")
    o = payload["overload"]
    lines += [
        "",
        f"overload @ ~10x capacity ({o['admission']}, queue "
        f"{o['queue_capacity']}, deadline {o['deadline_ms']:.0f} ms): "
        f"served {o['served']}/{o['requests']}, shed {o['shed_total']} "
        f"({o['shed_rate']:.0%}), max depth {o['max_queue_depth']}, "
        f"admitted p99 {o['latency_p99_ms']:.1f} ms, lost futures "
        f"{o['lost_futures']}",
    ]
    if payload["host_cpus"] == 1:
        lines.append(
            "(single-CPU host: worker rows measure batching overhead, "
            "not parallel speedup)")
    return "\n".join(lines)


def write_artifacts(payload: dict) -> None:
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(render(payload) + "\n")


def check_gate(payload: dict) -> list:
    """Return the violations (empty list = gate passes)."""
    problems = []
    if not payload["worker_scaling"]:
        problems.append("no worker-scaling rows measured")
    scaling_floor = (TARGETS["process_scaling_smoke"]
                     if payload["mode"] == "smoke"
                     else TARGETS["process_scaling"])
    problems.extend(check_process_scaling_gate(
        payload["process_scaling"], host_cpus=payload["host_cpus"],
        min_scaling=scaling_floor))
    problems.extend(check_overload_gate(payload["overload"]))
    return problems


def check_overload_gate(o: dict) -> list:
    """Graceful-degradation gate for the ~10x-capacity overload run."""
    problems = []
    if o["lost_futures"] != 0:
        problems.append(
            f"{o['lost_futures']} futures lost under overload")
    if o["shed_total"] == 0:
        problems.append(
            "overload run shed nothing: admission control never "
            "engaged at 10x capacity")
    if o["max_queue_depth"] > o["queue_capacity"]:
        problems.append(
            f"queue depth {o['max_queue_depth']} exceeded the "
            f"configured bound {o['queue_capacity']}")
    if o["served"] and o["latency_p99_ms"] > 2 * o["deadline_ms"]:
        problems.append(
            f"admitted p99 {o['latency_p99_ms']:.1f} ms exceeds 2x "
            f"the {o['deadline_ms']:.0f} ms deadline")
    return problems


# -- pytest entry point (CI serving-smoke job) --------------------------------


def test_serving_smoke(save_result):
    payload = run_suite(smoke=True, requests=32)
    save_result("serving", render(payload))
    assert check_gate(payload) == []


def test_scaling_smoke(save_result):
    """CI scaling-smoke gate for the process-sharded server.

    Bit-exactness vs the single-worker reference, zero lost futures,
    the zero-copy plan-memory bound and a clean /dev/shm delta bind on
    every host; the throughput(4) >= 1.8x throughput(1) multiplier
    binds when the runner has >= MIN_SCALING_CPUS cores.
    """
    graph = _resnet_graph()
    ps = process_scaling_study(graph, requests=48, worker_counts=(1, 4))
    save_result("scaling", json.dumps(ps, indent=2))
    assert check_process_scaling_gate(
        ps, host_cpus=os.cpu_count() or 1,
        min_scaling=TARGETS["process_scaling_smoke"]) == []


def test_overload_smoke(save_result):
    """CI overload-smoke gate: ~10x capacity must degrade gracefully
    (bounded queue depth, non-zero shed counters, zero lost futures)."""
    graph = _resnet_graph()
    o = overload_study(graph, requests=120, workers=2, queue_capacity=6)
    save_result("overload", json.dumps(o, indent=2))
    assert check_overload_gate(o) == []


# -- standalone entry point ---------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="smaller studies + regression gate (CI)")
    parser.add_argument("--mode", choices=("smoke", "full"),
                        default=None,
                        help="alias for --smoke / the full sweep")
    parser.add_argument("--repeats", type=int, default=None,
                        help="no effect: nothing is timed best-of-N any "
                             "more; accepted so older invocations run")
    parser.add_argument("--requests", type=int, default=64,
                        help="requests per worker-scaling row")
    args = parser.parse_args(argv)
    smoke = args.smoke or args.mode == "smoke"

    payload = run_suite(requests=args.requests, smoke=smoke)
    write_artifacts(payload)
    print(render(payload))
    print(f"\nwrote {JSON_PATH} and {RESULTS_PATH}")
    problems = check_gate(payload)
    for problem in problems:
        print(f"GATE FAILURE: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
