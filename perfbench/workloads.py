"""The four benchmark workloads and the measurement loops that drive them.

Every workload goes through the same set-up phases (build, compile,
first call) that :mod:`perfbench.setup_probe` times in a fresh process,
then runs operations for a fixed wall-clock window.  Inputs come from
the ``--seed`` generator only; the model weights are part of the
deployed program and stay fixed.  Every output is compared with a
numpy-backend reference computed before the timed window starts.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import FIGURE6_CONFIGS, MixGemm, MixGemmConfig
from repro.core.binseg import value_range
from repro.core.gemm import reference_gemm
from repro.models.builders import build_tiny
from repro.nn.layers import seed_init
from repro.runtime import (
    InferenceEngine,
    compile_graph,
    export_model,
    serve,
)

from perfbench.hostspeed import kernel_seconds, stolen_seconds

#: Weight seed of the deployed model; inputs vary with ``--seed``.
MODEL_SEED = 13
#: Closed loops time the host-speed kernel this often, this many times,
#: and rescale each slice of this many probes by its median.
PROBE_EVERY_S = 0.25
PROBE_SAMPLES = 3
PROBES_PER_SLICE = 4


def build_graph():
    """resnet18 at a8w8, the network every runtime workload deploys."""
    seed_init(MODEL_SEED)
    model = build_tiny("resnet18", act_bits=8, weight_bits=8)
    model.eval()
    return export_model(model, name="resnet18")


@dataclass
class Window:
    """What one timed window measured."""

    seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)  # seconds
    attempted: int = 0
    failed: int = 0
    completed_ok: int = 0
    #: pool item -> modelled cycles of its first run in the window.
    item_cycles: dict[int, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    late: list[float] = field(default_factory=list)       # open loop only
    #: per request: (latency s, span of the plan.run that carried it).
    carried: list = field(default_factory=list)
    #: :func:`hostspeed.kernel_seconds` samples taken in the window.
    host_kernel: list[float] = field(default_factory=list)
    #: (host reading, latencies s) per slice of the window: the median
    #: kernel time for closed loops, stolen CPU s per s for the open loop.
    slices: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def merge(self, other: "Window") -> None:
        """Add a later window of the same workload to this one."""
        self.seconds += other.seconds
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.completed_ok += other.completed_ok
        self.late += other.late
        self.carried += other.carried
        self.host_kernel += other.host_kernel
        self.slices += other.slices
        self.failed += other.failed
        self.errors = (self.errors + other.errors)[:5]
        for item, cycles in other.item_cycles.items():
            first = self.item_cycles.setdefault(item, cycles)
            if cycles != first:
                self.fail(f"op {item}: {cycles} cycles, first run {first}")


class Workload:
    """Closed-loop workload: one caller runs :meth:`op` back to back."""

    name = ""
    #: What one operation completes, for ``throughput_per_s``.
    samples_per_op = 1
    #: Distinct inputs in the fixed input set; operations cycle over it.
    pool = 1
    #: Whether operation times scale with host speed, so the window's
    #: times are rescaled by :mod:`perfbench.hostspeed`.
    cpu_bound = True

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.refs: list[np.ndarray] = []

    # -- set-up phases (timed by the setup probe) ----------------------------

    def build(self) -> None:
        raise NotImplementedError

    def compile(self) -> None:
        raise NotImplementedError

    def first_call(self) -> np.ndarray:
        return self.op(0)[0]

    def reference(self, item: int) -> np.ndarray:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- measurement ----------------------------------------------------------

    def op(self, item: int) -> tuple[np.ndarray, int]:
        """Run one operation on pool item ``item``: (output, cycles)."""
        raise NotImplementedError

    def prepare_references(self) -> None:
        self.refs = [self.reference(i) for i in range(self.pool)]

    def instrument(self, tracer) -> None:
        """Workload-specific wrappers beyond the common ones."""

    def uninstrument(self) -> None:
        """Undo :meth:`instrument`."""

    def pack_stats(self):
        return None

    def measure(self, seconds: float, tracer=None) -> Window:
        """Run whole passes over the pool until ``seconds`` have passed.

        Stopping only at pass boundaries keeps the mix of operations the
        same in every window, which matters when operations differ in
        cost (the bitwidth pairs of ``sim-fig6``).  Operations are
        grouped into slices of :data:`PROBES_PER_SLICE` host-speed
        probes, each slice holding the operations that follow its probes.
        """
        win = Window()
        t0 = time.perf_counter()
        deadline = t0 + seconds
        next_probe = t0
        probing = 0.0  # seconds spent in host-speed probes
        kernel: list[float] = []  # the current slice's probe samples
        lats: list[float] = []    # the current slice's latencies
        i = 0
        while not (i % self.pool == 0 and time.perf_counter() >= deadline):
            item = i % self.pool
            i += 1
            start = time.perf_counter()
            if start >= next_probe:
                if len(kernel) == PROBES_PER_SLICE * PROBE_SAMPLES:
                    win.slices.append((statistics.median(kernel), lats))
                    kernel, lats = [], []
                samples = [kernel_seconds() for _ in range(PROBE_SAMPLES)]
                win.host_kernel += samples
                kernel += samples
                next_probe = start + PROBE_EVERY_S
                probing += time.perf_counter() - start
                start = time.perf_counter()
            try:
                if tracer is None:
                    out, cycles = self.op(item)
                else:
                    out, cycles = tracer.call(
                        "op", self.op, item,
                        annotate=lambda a, r: {"item": a[0]})
            except Exception as exc:  # noqa: BLE001 - counted, reported
                out, cycles = exc, None
            win.latencies.append(time.perf_counter() - start)
            lats.append(win.latencies[-1])
            win.attempted += 1
            if isinstance(out, Exception):
                win.fail(f"op {item}: {type(out).__name__}: {out}")
                continue
            first = win.item_cycles.setdefault(item, cycles)
            if not np.array_equal(out, self.refs[item]):
                win.fail(f"op {item}: output differs from the reference")
            elif cycles != first:
                win.fail(f"op {item}: {cycles} cycles, first run {first}")
            else:
                win.completed_ok += 1
        win.slices.append((statistics.median(kernel), lats))
        win.seconds = time.perf_counter() - t0 - probing
        return win

    def sim_cycles(self, win: Window) -> int:
        """Modelled cycles of one pass over the fixed input set."""
        return sum(win.item_cycles.values())


class _ResnetWorkload(Workload):
    """Deploys :func:`build_graph` on inputs of ``input_shape``; outputs
    must equal a numpy-backend plan of the same graph bit for bit."""

    input_shape: tuple[int, ...] = ()
    ref_plan = None

    def build(self) -> None:
        self.graph = build_graph()
        self.inputs = [self.rng.standard_normal(self.input_shape)
                       for _ in range(self.pool)]

    def numpy_output(self, x: np.ndarray) -> np.ndarray:
        if self.ref_plan is None:
            self.ref_plan = compile_graph(self.graph, backend="numpy")
        return self.ref_plan.run(x).output

    def reference(self, item: int) -> np.ndarray:
        return self.numpy_output(self.inputs[item])


class BatchWorkload(_ResnetWorkload):
    """``batch-r18-b32``: closed-loop ``GraphPlan.run`` on 32-sample
    batches, no serving layer in front."""

    name = "batch-r18-b32"
    samples_per_op = 32
    pool = 4
    input_shape = (32, 1, 16, 16)

    def compile(self) -> None:
        self.plan = compile_graph(self.graph, backend="mixgemm",
                                  gemm_backend="auto")

    def op(self, item: int) -> tuple[np.ndarray, int]:
        result = self.plan.run(self.inputs[item])
        return result.output, result.total_cycles

    def instrument(self, tracer) -> None:
        self.plan.steps[:] = [_StepProxy(step, tracer)
                              for step in self.plan.steps]

    def uninstrument(self) -> None:
        self.plan.steps[:] = [s.step if isinstance(s, _StepProxy) else s
                              for s in self.plan.steps]

    def pack_stats(self):
        return self.plan.pack_stats


class _StepProxy:
    """Times one compiled-plan step; everything else passes through."""

    def __init__(self, step, tracer) -> None:
        self.step = step
        self.tracer = tracer
        kind = type(step).__name__.lower()
        self.span_name = ("plan.step.conv" if "conv" in kind
                          else "plan.step.linear" if "linear" in kind
                          else "plan.step.generic")

    def __getattr__(self, attr):
        return getattr(self.step, attr)

    def __call__(self, arrays, result):
        return self.tracer.call(self.span_name, self.step, arrays, result)


class GuardedWorkload(_ResnetWorkload):
    """``guarded-r18-b8``: the interpreted ``InferenceEngine`` path with
    light guards, re-quantizing every layer on every call."""

    name = "guarded-r18-b8"
    samples_per_op = 8
    pool = 4
    input_shape = (8, 1, 16, 16)

    def compile(self) -> None:
        self.engine = InferenceEngine(self.graph, backend="mixgemm",
                                      guard_level="light")

    def op(self, item: int) -> tuple[np.ndarray, int]:
        result = self.engine.run(self.inputs[item])
        return result.output, result.total_cycles

    def pack_stats(self):
        return self.engine.pack_stats


class SimWorkload(Workload):
    """``sim-fig6``: the event-driven u-engine simulator on the 12
    Figure 6 bitwidth pairs, each GEMM checked against the integer
    reference."""

    name = "sim-fig6"
    pool = len(FIGURE6_CONFIGS)
    #: Square operand edge; small enough for many passes per window.
    size = 16

    def build(self) -> None:
        self.cases = []
        for bw_a, bw_b in FIGURE6_CONFIGS:
            config = MixGemmConfig(bw_a=bw_a, bw_b=bw_b)
            lo_a, hi_a = value_range(bw_a, config.signed_a)
            lo_b, hi_b = value_range(bw_b, config.signed_b)
            n = self.size
            a = self.rng.integers(lo_a, hi_a + 1, size=(n, n))
            b = self.rng.integers(lo_b, hi_b + 1, size=(n, n))
            self.cases.append((config, a, b))

    def compile(self) -> None:
        config = self.cases[0][0]
        self.executor = MixGemm(config, backend="event")

    def first_call(self) -> np.ndarray:
        _, a, b = self.cases[0]
        return self.executor.gemm(a, b).c

    def reference(self, item: int) -> np.ndarray:
        _, a, b = self.cases[item]
        return reference_gemm(a, b)

    def op(self, item: int) -> tuple[np.ndarray, int]:
        config, a, b = self.cases[item]
        result = MixGemm(config, backend="event").gemm(a, b)
        return result.c, result.cycles


class ServeWorkload(_ResnetWorkload):
    """``serve-r18-open``: single-sample requests sent in an open loop
    to the threaded micro-batching server."""

    name = "serve-r18-open"
    cpu_bound = False
    pool = 64
    input_shape = (1, 12, 12)
    workers = 2
    server = None
    #: Mean offered load, requests per second: well under capacity, so
    #: latency reflects the batch window, not a growing backlog.  At 500
    #: the p90 moved by 30 % between identical runs, at 250 by 18 %.
    rate = 250.0
    #: Length of the slices whose steal the latency quantiles are fitted
    #: against (:func:`hostspeed.steal_free_quantile`).
    slice_s = 1.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.arrivals = np.random.default_rng([seed, 1])
        self.sent = 0  # requests sent by earlier windows

    def compile(self) -> None:
        self.server = serve(self.graph, processes=False,
                            workers=self.workers, max_batch=8,
                            max_wait_ms=2.0, backend="mixgemm")

    def first_call(self) -> np.ndarray:
        return self.server.submit(self.inputs[0]).result(timeout=60).output

    def reference(self, item: int) -> np.ndarray:
        return self.numpy_output(self.inputs[item][None])[0]

    def close(self) -> None:
        if self.server is not None:
            self.server.close()

    def pack_stats(self):
        return self.server.pack_cache.stats

    def measure(self, seconds: float, tracer=None) -> Window:
        """Send ``rate * seconds`` requests at Poisson arrival times.

        Independent clients arrive at random; a fixed spacing would
        beat against the 2 ms batch window (at 500 requests/s the
        spacing equals it) and make the latency distribution bimodal,
        with the median jumping between the modes from run to run.
        Latency runs from when a request was *due*, so a stalled
        generator charges its delay to the requests behind it.  Futures
        are not kept: the done callback keeps only the time and the
        output (or exception), so the benchmark's own bookkeeping does
        not grow the resident memory it reports.  Requests are grouped
        into slices by due time, with the host's stolen time read at each
        slice's first send.
        """
        win = Window()
        # Host speed is recorded, not used: the batch window dominates.
        win.host_kernel = [kernel_seconds() for _ in range(10)]
        count = max(1, int(round(self.rate * seconds)))
        done = [0.0] * count
        outcome: list = [None] * count
        carried: list = [None] * count
        resolved = threading.Semaphore(0)

        def finished(k: int, future) -> None:
            done[k] = time.perf_counter()
            if tracer is not None:
                # The worker thread that ran the batch resolves its
                # futures right after plan.run returns, so its last
                # plan.run span is the one that carried this request.
                # A callback that runs on the generator thread (future
                # already resolved) has no such span and is skipped.
                carried[k] = tracer.last("plan.run")
            exc = future.exception()
            outcome[k] = exc if exc is not None else future.result().output
            resolved.release()

        gaps = self.arrivals.exponential(1.0 / self.rate, size=count)
        submitted = 0
        t0 = time.perf_counter() + 0.001
        due_at = t0 + np.concatenate(([0.0], np.cumsum(gaps[:-1])))
        slice_of = ((due_at - t0) // self.slice_s).astype(int)
        marks = []  # (time, stolen seconds) at each slice's first send
        for k in range(count):
            due = due_at[k]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            while len(marks) <= slice_of[k]:
                marks.append((time.perf_counter(), stolen_seconds()))
            win.late.append(time.perf_counter() - due)
            try:
                future = self.server.submit(self.inputs[k % self.pool])
            except Exception as exc:  # noqa: BLE001 - refusals count
                outcome[k] = exc
                continue
            submitted += 1
            future.add_done_callback(lambda f, k=k: finished(k, f))
        give_up = time.perf_counter() + 60.0
        for _ in range(submitted):
            if not resolved.acquire(
                    timeout=max(0.0, give_up - time.perf_counter())):
                break
        marks.append((time.perf_counter(), stolen_seconds()))
        by_slice: list[list[float]] = [[] for _ in marks]
        win.attempted = count
        last_done = t0
        for k in range(count):
            result = outcome[k]
            if result is None:
                win.fail(f"request {k}: not resolved within 60 s")
                continue
            if isinstance(result, BaseException):
                win.fail(f"request {k}: {type(result).__name__}: {result}")
                continue
            latency = done[k] - due_at[k]
            win.latencies.append(latency)
            by_slice[slice_of[k]].append(latency)
            last_done = max(last_done, done[k])
            if not np.array_equal(result, self.refs[k % self.pool]):
                win.fail(f"request {k}: output differs from the reference")
                continue
            win.completed_ok += 1
            if carried[k] is not None:
                win.carried.append((latency, carried[k]))
                # One span per request, due to done, naming the batch
                # run that carried it.
                tracer.record("serving.request", due_at[k], done[k],
                              args={"request": self.sent + k,
                                    "plan_run": carried[k].id})
        for (start, stolen), (end, stolen_end), lats in zip(
                marks, marks[1:], by_slice):
            if end > start:
                win.slices.append(((stolen_end - stolen) / (end - start),
                                   lats))
        self.sent += count
        win.seconds = last_done - t0
        return win

    def sim_cycles(self, win: Window) -> int:
        """Modelled cycles of the fixed input set served one by one.

        The server's batch composition depends on timing, so the count
        is taken on a separate plan at batch 1, twice, and must repeat.
        """
        plan = compile_graph(self.graph, backend="mixgemm")
        passes = [[plan.run(x[None]).total_cycles for x in self.inputs]
                  for _ in range(2)]
        if passes[0] != passes[1]:
            win.fail("serve cycles differ between two passes")
        win.item_cycles = dict(enumerate(passes[0]))
        return sum(passes[0])


WORKLOADS = {w.name: w for w in (ServeWorkload, BatchWorkload,
                                 GuardedWorkload, SimWorkload)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


__all__ = ["WORKLOADS", "Window", "Workload", "build_graph", "make"]
