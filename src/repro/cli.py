"""Command-line interface: ``python -m repro <command>``.

Commands mirror the evaluation:

* ``info``            -- library and configuration summary;
* ``gemm``            -- one simulated GEMM (bit-exact + cycles);
* ``run``             -- full graph inference on the simulator from an
  ahead-of-time compiled plan, with ``--backend {event,fast,auto}``
  execution-backend selection;
* ``serve``           -- batched multi-worker serving load test over
  compiled inference plans (``--processes`` shards across worker
  processes on a zero-copy shared-memory plan);
* ``figure6``         -- the square-GEMM speed-up grid;
* ``figure7``         -- the accuracy/throughput Pareto points;
* ``table1|2|3``      -- the three tables;
* ``network``         -- one CNN's modelled throughput/efficiency ladder;
* ``explore``         -- per-layer mixed-precision search;
* ``report``          -- run everything and write a consolidated report;
* ``faultsim``        -- seeded fault-injection campaign against the
  hardened runtime (detection / recovery / silent-corruption rates);
* ``check``           -- static quantization-contract checker over a
  deployment graph plus the repo-invariant linter (text/JSON/SARIF).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np


def _cmd_info(args: argparse.Namespace) -> int:
    from repro import __version__
    from repro.core.config import MixGemmConfig, all_size_combinations

    print(f"repro {__version__} -- Mix-GEMM (HPCA 2023) reproduction")
    print(f"supported configurations: {len(all_size_combinations())} "
          f"(a8-w8 ... a2-w2, mixed precision included)")
    for bw in (8, 6, 4, 3, 2):
        cfg = MixGemmConfig(bw_a=bw, bw_b=bw)
        print(f"  {cfg.describe()}")
    return 0


def _cmd_gemm(args: argparse.Namespace) -> int:
    from repro.core.config import BlockingParams, MixGemmConfig
    from repro.core.gemm import MixGemm, reference_gemm

    rng = np.random.default_rng(args.seed)
    lo_a = -(1 << (args.abits - 1))
    lo_b = -(1 << (args.wbits - 1))
    a = rng.integers(lo_a, -lo_a, size=(args.m, args.k))
    b = rng.integers(lo_b, -lo_b, size=(args.k, args.n))
    cfg = MixGemmConfig(
        bw_a=args.abits, bw_b=args.wbits,
        blocking=BlockingParams(mc=16, nc=16, kc=64),
    )
    executor = MixGemm(cfg, emulate_datapath=False, backend=args.backend)
    result = executor.gemm(a, b)
    exact = bool(np.array_equal(result.c, reference_gemm(a, b)))
    print(f"{cfg.name} GEMM {args.m}x{args.k}x{args.n}: exact={exact}")
    print(f"  backend: {result.backend} "
          f"({executor.last_decision.reason})")
    print(f"  {result.macs} MACs / {result.cycles} cycles "
          f"= {result.macs_per_cycle:.2f} MAC/cycle "
          f"({result.gops():.2f} GOPS @ 1.2 GHz)")
    print(f"  instructions: {result.instructions}")
    return 0 if exact else 1


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.robustness.faults import demo_graph, demo_input
    from repro.runtime.engine import InferenceEngine
    from repro.runtime.graph import GraphModel

    if args.model:
        graph = GraphModel.load(args.model)
    else:
        graph = demo_graph()
    x = demo_input(batch=args.batch, size=args.size, seed=args.seed)
    engine = InferenceEngine(
        graph, backend="mixgemm", guard_level=args.guard_level,
        gemm_backend=args.backend,
    )
    plan = engine.plan
    info = plan.info
    print(f"compiled plan: {info.steps} steps "
          f"({info.folded_batchnorms} batchnorms folded, "
          f"{info.fused_activations} activations fused, "
          f"{info.bound_executors} bound GEMM executors"
          + (f"; guarded at {info.guard_level}"
             if info.guard_level != "off" else "") + ")")
    result = engine.run(x)
    stats = engine.pack_stats
    print(f"graph: {len(list(graph))} nodes, "
          f"{len(result.layer_stats)} quantized GEMM calls")
    print(f"gemm backend: {args.backend} (guards: {args.guard_level})")
    print(f"output shape: {result.output.shape}, "
          f"predictions: {result.output.argmax(axis=1).tolist()}")
    print(f"cycles: {result.total_cycles}, macs: {result.total_macs}, "
          f"{result.gops():.2f} GOPS @ 1.2 GHz")
    predicted: dict[str, int] = {}
    if args.guard_level == "off" and result.layer_stats:
        from repro.analysis.cost import predict_graph_cycles
        from repro.analysis.cost.graph import iter_plan_gemms

        first_macs = {}
        for s in result.layer_stats:
            first_macs.setdefault(s.layer, s.macs)
        layer_rows = {}
        for label, _op, gemms in iter_plan_gemms(plan):
            macs = first_macs.get(label)
            if macs and gemms:
                g = gemms[0]
                layer_rows[label] = max(1, macs // max(g.n * g.k, 1))
        cost = predict_graph_cycles(plan, layer_rows=layer_rows)
        # Per-call comparison: each LayerStats row is one bound GEMM
        # execution, so show the per-GEMM prediction next to it.
        predicted = {lc.label: lc.breakdown.cycles for lc in cost.layers}
        print(f"cost model: {cost.total_cycles} predicted cycles "
              f"(engine-timed tiles, split by phase)")
    if result.layer_stats:
        width = max(len(s.layer) for s in result.layer_stats)
        print("per-layer:")
        for s in result.layer_stats:
            pred = (f" predicted={predicted[s.layer]}"
                    if s.layer in predicted else "")
            print(f"  {s.layer:{width}s} {s.op:13s} {s.config:8s} "
                  f"macs={s.macs} cycles={s.cycles}{pred}")
    print(f"packing cache: {stats.packs} packs, {stats.hits} hits "
          f"({stats.hit_rate:.0%} hit rate)")
    if result.fault_events:
        print(f"guard detections: {len(result.fault_events)}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.robustness.faults import demo_graph, demo_input
    from repro.runtime.graph import GraphModel
    from repro.runtime.serving import serve

    if args.requests < 1:
        print("--requests must be at least 1", file=sys.stderr)
        return 2
    if args.model:
        graph = GraphModel.load(args.model)
    else:
        graph = demo_graph()
    rng = np.random.default_rng(args.seed)
    inputs = [demo_input(batch=1, size=args.size,
                         seed=int(rng.integers(1 << 31)))[0]
              for _ in range(args.requests)]

    plan_memory: dict | None = None

    def serve_once():
        nonlocal plan_memory
        with serve(graph, processes=args.processes,
                   workers=args.workers,
                   max_batch=args.max_batch,
                   max_wait_ms=args.max_wait_ms,
                   queue_capacity=args.queue_capacity,
                   admission=args.admission,
                   admission_timeout_ms=args.admission_timeout_ms,
                   backend="mixgemm",
                   gemm_backend=args.backend) as server:
            deadline = args.deadline_ms if args.deadline_ms > 0 else None
            report = server.run_requests(inputs, deadline_ms=deadline,
                                         tolerate_overload=True)
            if hasattr(server, "plan_memory_report"):
                plan_memory = server.plan_memory_report()
            return report

    check = None
    if args.sanitize:
        from repro.analysis.concurrency import (
            analyze_concurrency,
            annotated_targets,
            crosscheck,
            sanitized_session,
        )
        analysis = analyze_concurrency(annotated_targets())
        with sanitized_session(analysis=analysis) as active:
            report = serve_once()
            trace = active.trace
        check = crosscheck(trace, analysis)
    else:
        report = serve_once()
    s = report.stats
    print(f"served {s.served}/{s.requests} requests in {s.seconds:.3f}s "
          f"on {report.workers} workers (compiled plans, max batch "
          f"{report.max_batch})")
    print(f"throughput: {s.throughput_rps:.1f} req/s, "
          f"{s.batches} batches, mean batch {s.mean_batch_size:.2f}")
    print(f"latency ms: p50={s.latency_p50_ms:.2f} "
          f"p95={s.latency_p95_ms:.2f} p99={s.latency_p99_ms:.2f} "
          f"mean={s.latency_mean_ms:.2f}")
    print(f"batch histogram: "
          + ", ".join(f"{k}x{v}" for k, v
                      in sorted(s.batch_histogram.items())))
    print(f"admission: {s.admission} (queue capacity "
          f"{s.queue_capacity}), max queue depth: {s.max_queue_depth}")
    print(f"overload: shed_rate={s.shed_rate:.1%} "
          f"(deadline={s.shed_deadline} capacity={s.shed_capacity} "
          f"rejected={s.rejected} timeouts={s.admit_timeouts} "
          f"cancelled={s.cancelled} closed={s.shed_closed})")
    print(f"breaker: {s.breaker_state} (trips={s.breaker_trips}, "
          f"degraded responses={s.degraded_responses})")
    if plan_memory is not None:
        shared = sum(w.get("plan_bytes_shared", 0)
                     for w in plan_memory["workers"])
        private = sum(w.get("plan_bytes_private", 0)
                      for w in plan_memory["workers"])
        print(f"plan memory: segment={plan_memory['segment_bytes']}B "
              f"shared across {len(plan_memory['workers'])} workers "
              f"(shared={shared}B private={private}B)")
    if check is not None:
        print(check.render())
        if not check.ok:
            return 1
    return 0


def _cmd_figure6(args: argparse.Namespace) -> int:
    from repro.eval.figures import figure6, int8_blis_speedup
    from repro.eval.reporting import render_figure6

    print(render_figure6(figure6()))
    print(f"\nint8 BLIS vs DGEMM: {int8_blis_speedup():.2f}x "
          f"(paper ~2.5x)")
    return 0


def _cmd_figure7(args: argparse.Namespace) -> int:
    from repro.eval.figures import figure7
    from repro.eval.reporting import render_figure7

    print(render_figure7(figure7()))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.number == 1:
        from repro.eval.tables import table1
        t1 = table1()
        print("Table I (DSE optimum):")
        print(f"  mc={t1.mc} nc={t1.nc} kc={t1.kc} mr={t1.mr} nr={t1.nr} "
              f"kua={t1.kua} kub={t1.kub} AccMem={t1.accmem} "
              f"SourceBuffers={t1.source_buffers}")
    elif args.number == 2:
        from repro.eval.reporting import render_table2
        from repro.eval.tables import table2
        print(render_table2(table2()))
    elif args.number == 3:
        from repro.eval.reporting import render_table3
        from repro.eval.tables import table3
        print(render_table3(table3()))
    else:
        print(f"no table {args.number} in the paper", file=sys.stderr)
        return 2
    return 0


def _cmd_network(args: argparse.Namespace) -> int:
    from repro.core.config import MixGemmConfig
    from repro.eval.accuracy import CONFIG_LADDER, top1_accuracy
    from repro.models.inventory import get_network
    from repro.sim.energy import EnergyModel
    from repro.sim.perf import MixGemmPerfModel

    inventory = get_network(args.name)
    perf = MixGemmPerfModel()
    energy = EnergyModel()
    print(f"{args.name}: {inventory.conv_macs / 1e9:.2f} conv GMAC")
    print(f"{'config':8s} {'GOPS':>7s} {'GOPS/W':>8s} {'TOP-1':>7s}")
    for bw_a, bw_b in CONFIG_LADDER:
        cfg = MixGemmConfig(bw_a=bw_a, bw_b=bw_b)
        r = perf.network(inventory, cfg)
        eff = energy.from_perf(r, cfg)
        print(f"{cfg.name:8s} {r.gops:7.2f} {eff.gops_per_watt:8.1f} "
              f"{top1_accuracy(args.name, bw_a, bw_b):7.2f}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.config import MixGemmConfig
    from repro.eval.profiler import profile_network, render_profile
    from repro.models.inventory import get_network

    cfg = MixGemmConfig(bw_a=args.abits, bw_b=args.wbits)
    profile = profile_network(get_network(args.name), cfg)
    print(render_profile(profile, top=args.top))
    shares = profile.share_by_kind()
    print("\ntime by layer kind: " + ", ".join(
        f"{kind}={share:.1%}" for kind, share in sorted(shares.items())
    ))
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.eval.layerwise import LayerwiseOptimizer
    from repro.models.inventory import get_network

    optimizer = LayerwiseOptimizer(args.name, get_network(args.name))
    mixed = optimizer.optimize(args.budget)
    uniform = optimizer.best_uniform_within(args.budget)
    print(f"{args.name} @ {args.budget}% loss budget:")
    print(f"  mixed:   {mixed.throughput_gops():.2f} GOPS "
          f"(mean {mixed.mean_bits:.1f} bits, predicted loss "
          f"{mixed.predicted_loss:.2f}%)")
    print(f"  uniform: {uniform.throughput_gops():.2f} GOPS")
    return 0


def _cmd_faultsim(args: argparse.Namespace) -> int:
    from repro.robustness.faults import FAULT_SITES, FaultCampaign

    if args.trials < 1:
        print("--trials must be at least 1", file=sys.stderr)
        return 2
    sites = tuple(s.strip() for s in args.sites.split(",") if s.strip())
    if not sites:
        print("--sites cannot be empty", file=sys.stderr)
        return 2
    for site in sites:
        if site not in FAULT_SITES:
            print(f"unknown fault site {site!r}; choose from "
                  f"{', '.join(FAULT_SITES)}", file=sys.stderr)
            return 2
    campaign = FaultCampaign(seed=args.seed, n_trials=args.trials,
                             sites=sites)
    print(f"fault campaign: {args.trials} trials, seed {args.seed}, "
          f"sites {', '.join(sites)}")
    baseline = campaign.run(guard_level="off")
    print(baseline.render())
    guarded = campaign.run(guard_level=args.guard_level)
    print(guarded.render())
    ok = (guarded.detection_rate >= 0.95 and guarded.n_silent == 0
          and baseline.n_silent > 0)
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict}: guards-off silent corruptions "
          f"{baseline.n_silent}/{baseline.n_injected}, guarded detection "
          f"{guarded.detection_rate:.1%}, guarded recovery "
          f"{guarded.recovery_rate:.1%}")
    return 0 if ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis import (
        AnalysisError,
        DiagnosticReport,
        check_concurrency,
        check_cost_file,
        check_graph_file,
        check_ranges_file,
        lint_paths,
        to_sarif_json,
    )

    if not args.graph and not args.lint and args.concurrency is None \
            and not args.ranges and not args.cost:
        print("nothing to check: pass --graph MODEL.json, --lint PATH, "
              "--concurrency [PATH ...], --ranges MODEL.json and/or "
              "--cost MODEL.json",
              file=sys.stderr)
        return 2
    accmem_bits = args.accmem_bits
    if accmem_bits is None:
        from repro.core.config import DEFAULT_ACCMEM_BITS
        accmem_bits = DEFAULT_ACCMEM_BITS
    input_range = tuple(args.input_range) if args.input_range else None

    # Every selected pass runs and feeds one merged report; usage-level
    # failures (unreadable targets) are collected, not short-circuited,
    # so combined invocations render every finding before exiting 2 and
    # '--fail-on' means the same thing whatever passes are selected.
    report = DiagnosticReport()
    usage_errors: list[str] = []
    for model in args.graph:
        report.extend(check_graph_file(model, accmem_bits=accmem_bits))
    if args.lint:
        try:
            report.extend(lint_paths(args.lint))
        except AnalysisError as exc:
            usage_errors.append(str(exc))
    if args.concurrency is not None:
        from repro.analysis.concurrency import default_targets
        targets = args.concurrency or default_targets()
        try:
            report.extend(check_concurrency(targets))
        except AnalysisError as exc:
            usage_errors.append(str(exc))
    range_tables: dict[str, dict] = {}
    for model in args.ranges:
        try:
            diags, analysis = check_ranges_file(
                model, accmem_bits=accmem_bits,
                input_range=input_range,
                verify_plan=args.verify_plan)
        except AnalysisError as exc:
            usage_errors.append(str(exc))
            continue
        report.extend(diags)
        if analysis is not None and args.ranges_table:
            from repro.analysis.ranges import table_json
            range_tables[model] = json.loads(table_json(analysis))
    for model in args.cost:
        report.extend(check_cost_file(
            model, accmem_bits=accmem_bits,
            workers=args.cost_workers))

    if args.format == "json":
        rendered = report.to_json()
    elif args.format == "sarif":
        from repro import __version__
        rendered = to_sarif_json(report, tool_version=__version__)
    else:
        rendered = report.render_text()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
        print(f"{report.summary()} -> {args.output}")
    else:
        print(rendered)
    if args.ranges_table and range_tables:
        payload = (next(iter(range_tables.values()))
                   if len(range_tables) == 1 else range_tables)
        with open(args.ranges_table, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"per-layer bounds table -> {args.ranges_table}")
    for err in usage_errors:
        print(err, file=sys.stderr)
    if usage_errors:
        return 2
    return report.exit_code(fail_on=args.fail_on)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.full_report import write_full_report

    path = write_full_report(args.output)
    print(f"report written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mix-GEMM (HPCA 2023) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library summary").set_defaults(
        func=_cmd_info)

    p = sub.add_parser("gemm", help="simulate one quantized GEMM")
    p.add_argument("-m", type=int, default=16)
    p.add_argument("-k", type=int, default=96)
    p.add_argument("-n", type=int, default=16)
    p.add_argument("--abits", type=int, default=8)
    p.add_argument("--wbits", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", default="auto",
                   choices=("event", "fast", "auto"),
                   help="execution backend (auto picks the vectorized "
                        "fast path on guard-free runs)")
    p.set_defaults(func=_cmd_gemm)

    p = sub.add_parser(
        "run", help="graph inference on the u-engine simulator")
    p.add_argument("--model", default="",
                   help="serialized GraphModel (default: the shipped "
                        "demo CNN)")
    p.add_argument("--batch", type=int, default=2)
    p.add_argument("--size", type=int, default=6,
                   help="input spatial size (input is batch x 1 x "
                        "size x size)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", default="auto",
                   choices=("event", "fast", "auto"),
                   help="GEMM execution backend inside the simulator")
    p.add_argument("--guard-level", default="off",
                   choices=("off", "light", "standard", "full"),
                   help="integrity-guard level (runs the fused plan "
                        "with a per-node NaN/Inf fence and guarded GEMM "
                        "steps; standard and full force the event "
                        "backend per call)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "serve", help="batched multi-worker serving load test")
    p.add_argument("--model", default="",
                   help="serialized GraphModel (default: the shipped "
                        "demo CNN)")
    p.add_argument("--requests", type=int, default=64,
                   help="number of single-sample requests to submit")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--max-batch", type=int, default=8,
                   dest="max_batch")
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   dest="max_wait_ms",
                   help="micro-batcher straggler window, held only "
                        "while at most one worker is idle")
    p.add_argument("--queue-capacity", type=int, default=64,
                   dest="queue_capacity",
                   help="bound on the admission queue")
    p.add_argument("--admission", default="block",
                   choices=("block", "reject", "shed-oldest"),
                   help="what a full queue does to new submissions")
    p.add_argument("--admission-timeout-ms", type=float, default=1000.0,
                   dest="admission_timeout_ms",
                   help="how long a blocked submit waits for a slot")
    p.add_argument("--deadline-ms", type=float, default=0.0,
                   dest="deadline_ms",
                   help="per-request deadline (0 = none); expired "
                        "requests are shed before execution")
    p.add_argument("--size", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", default="auto",
                   choices=("event", "fast", "auto"))
    p.add_argument("--processes", action="store_true",
                   help="shard across worker processes on a zero-copy "
                        "shared-memory plan (falls back to threads "
                        "with a ReliabilityWarning if unavailable)")
    p.add_argument("--sanitize", action="store_true",
                   help="run under the lock sanitizer and cross-check "
                        "the trace against the static lockset verdicts")
    p.set_defaults(func=_cmd_serve)

    sub.add_parser("figure6", help="square-GEMM speed-up grid"
                   ).set_defaults(func=_cmd_figure6)
    sub.add_parser("figure7", help="accuracy/throughput Pareto points"
                   ).set_defaults(func=_cmd_figure7)

    p = sub.add_parser("table", help="regenerate Table I/II/III")
    p.add_argument("number", type=int, choices=(1, 2, 3))
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("network", help="one CNN's configuration ladder")
    p.add_argument("name")
    p.set_defaults(func=_cmd_network)

    p = sub.add_parser("profile", help="per-layer performance breakdown")
    p.add_argument("name")
    p.add_argument("--abits", type=int, default=8)
    p.add_argument("--wbits", type=int, default=8)
    p.add_argument("--top", type=int, default=None,
                   help="show only the N hottest layers")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("explore", help="per-layer mixed-precision search")
    p.add_argument("name")
    p.add_argument("--budget", type=float, default=1.5,
                   help="max TOP-1 loss in percentage points")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("faultsim",
                       help="seeded fault-injection campaign")
    p.add_argument("--trials", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sites",
                   default="uvector_a,uvector_b,accmem,weight",
                   help="comma-separated fault sites to exercise")
    p.add_argument("--guard-level", default="full",
                   choices=("light", "standard", "full"),
                   help="guard level for the protected run")
    p.set_defaults(func=_cmd_faultsim)

    p = sub.add_parser(
        "check",
        help="static contract checker, repo invariant linter, "
             "concurrency + range + cost analyzers")
    p.add_argument("--graph", action="append", default=[],
                   metavar="MODEL.json",
                   help="contract-check a serialized GraphModel "
                        "(repeatable)")
    p.add_argument("--lint", action="append", default=[],
                   metavar="PATH",
                   help="lint .py files under PATH against the REP "
                        "rules (repeatable)")
    p.add_argument("--concurrency", nargs="*", default=None,
                   metavar="PATH",
                   help="run the lockset / lock-order / escape "
                        "analyzer over PATHs (no PATH: the installed "
                        "repro package)")
    p.add_argument("--ranges", action="append", default=[],
                   metavar="MODEL.json",
                   help="abstract-interpretation range analysis of a "
                        "serialized GraphModel: tight per-layer "
                        "accumulator bounds, RANGE-OVERFLOW / "
                        "RANGE-NARROWABLE findings (repeatable)")
    p.add_argument("--input-range", nargs=2, type=float, default=None,
                   metavar=("LO", "HI"),
                   help="known bounds of the network input for "
                        "--ranges (default: unbounded)")
    p.add_argument("--verify-plan", action="store_true",
                   help="with --ranges: also compile the inference "
                        "plan (fused, as every run uses it) and its "
                        "unfused reference and statically verify they "
                        "preserve the proven ranges (RANGE-EQUIV)")
    p.add_argument("--ranges-table", default="", metavar="PATH",
                   help="with --ranges: write the per-layer bounds "
                        "table (derived accumulator bits, headroom, "
                        "wrap verdicts) as JSON to PATH")
    p.add_argument("--cost", action="append", default=[],
                   metavar="MODEL.json",
                   help="cost analysis of a serialized GraphModel: "
                        "COST-BLOCKING-INEFFICIENT / COST-IMBALANCE "
                        "findings (repeatable)")
    p.add_argument("--cost-workers", type=int, default=1,
                   dest="cost_workers",
                   help="with --cost: deployment worker count to audit "
                        "N-slice balance for (1 = single-core, no "
                        "imbalance check)")
    p.add_argument("--format", default="text",
                   choices=("text", "json", "sarif"),
                   help="diagnostic output format")
    p.add_argument("--output", default="",
                   help="write diagnostics to a file instead of stdout")
    p.add_argument("--accmem-bits", type=int, default=None,
                   dest="accmem_bits",
                   help="AccMem width to verify overflow bounds "
                        "against (default: the engine's 64)")
    p.add_argument("--fail-on", default="error",
                   choices=("error", "warning", "info"),
                   help="lowest severity that makes the exit code "
                        "non-zero")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("report", help="write the consolidated report")
    p.add_argument("--output", default="REPORT.md")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
