"""Batched multi-worker serving on top of compiled inference plans.

The ROADMAP's north star is a runtime that can "serve heavy traffic" --
sharding, batching, async, caching.  This module supplies the
single-process core of that story:

* a **bounded request queue** with admission control: a full queue
  blocks (with timeout), rejects, or sheds its oldest entry depending
  on the configured :data:`~repro.runtime.overload.ADMISSION_POLICIES`
  policy, so sustained overload degrades into structured
  :class:`~repro.robustness.errors.OverloadError` responses instead of
  unbounded memory growth;
* **per-request deadlines**: ``submit(x, deadline_ms=...)`` stamps an
  absolute deadline on the request; the batcher sheds expired requests
  before they reach a worker and cuts batches early so a near-deadline
  member is not held for stragglers;
* a **dynamic micro-batcher**: the first request of a batch opens a
  deadline window (``max_wait_ms``); further requests join until the
  window closes, ``max_batch`` is reached, or a member's deadline
  forces an early cut;
* a **worker pool** of compiled :class:`~repro.runtime.plan.GraphPlan`
  instances behind a ``ThreadPoolExecutor``.  Plans hold mutable
  scratch state and are not thread-safe, so each worker owns a private
  runner checked out of a **bounded** pool queue *before* dispatch --
  the checkout is what gives the executor backpressure (its internal
  queue is unbounded, so dispatching first would defeat admission
  control).  All plans share one (locked)
  :class:`~repro.core.packcache.PackingCache`;
* an optional **circuit breaker**
  (:class:`~repro.runtime.overload.CircuitBreaker`): when guards or
  fault injection are armed, repeated faulty batches open the circuit
  and the pool degrades to each runner's clean numpy reference engine;
  responses carry degraded-mode metadata until a half-open probe batch
  comes back clean.

Futures resolve to :class:`ServedResponse` objects carrying the output
*and* per-request reliability metadata (latency, degraded flag, breaker
state, fallback warnings surfaced from the inference result rather than
dropped in the worker thread).  :class:`ServingReport` aggregates p50 /
p95 / p99 / mean latency, throughput, the batch-size histogram,
observed queue depths and every overload counter, so a load test
doubles as a capacity measurement.

Process-level sharding is built on top of this class:
:class:`~repro.runtime.sharding.ShardedServer` overrides only the
runner-construction hook (:meth:`BatchedServer._setup_runners`) to fan
batches out to worker processes executing a zero-copy shared plan; the
:func:`serve` factory picks between the two behind one API (and
degrades process sharding to this threaded pool with a
:class:`~repro.robustness.errors.ReliabilityWarning` when the
environment cannot support it).  The asyncio front end lives in
:mod:`repro.runtime.async_client` and works against either flavour.
"""

from __future__ import annotations

import queue
import threading
import time
import warnings
from collections import Counter
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.config import DEFAULT_ACCMEM_BITS
from repro.core.errors import ReproError
from repro.core.locks import make_lock
from repro.core.packcache import PackingCache
from repro.robustness.errors import OverloadError, ReliabilityWarning
from repro.robustness.faults import FaultPlan
from repro.robustness.recovery import BreakerPolicy, RecoveryPolicy

from .engine import InferenceEngine
from .graph import GraphModel
from .overload import AdmissionQueue, CircuitBreaker
from .plan import compile_graph

#: Queue sentinel telling the batcher thread to drain and exit.
_STOP = object()

#: Map from OverloadError reason to the ServingStats counter it bumps.
_REASON_COUNTERS = {
    "deadline": "shed_deadline",
    "shed": "shed_capacity",
    "closed": "shed_closed",
    "queue-full": "rejected",
    "admission-timeout": "admit_timeouts",
    "cancelled": "cancelled",
}


class ServingError(ReproError, RuntimeError):
    """Raised on server misuse (bad parameters, submit after close)."""


@dataclass
class _Request:
    """One in-flight sample plus its promise, deadline and timing."""

    x: np.ndarray
    future: Future
    submitted: float
    deadline: Optional[float] = None      # absolute perf_counter time
    deadline_ms: Optional[float] = None   # as given by the client
    completed: float = 0.0


@dataclass(frozen=True)
class ServedResponse:
    """What a request's future resolves to: output + reliability metadata.

    ``warnings`` carries human-readable fallback/degradation notices
    surfaced from the worker's inference result (one per recovered
    layer, plus a breaker notice when the batch ran degraded) --
    per-request metadata instead of process-global ``warnings.warn``
    noise from worker threads.
    """

    output: np.ndarray
    latency_ms: float
    degraded: bool = False
    breaker_state: str = "disabled"
    warnings: tuple[str, ...] = ()
    recovered_layers: tuple[str, ...] = ()
    fault_detections: int = 0


@dataclass
class _Runner:
    """One worker slot: the primary backend plus its degraded fallback."""

    primary: object
    reference: Optional[InferenceEngine] = None


@dataclass
class ServingStats:
    """Latency/throughput/overload accounting for one measurement window."""

    requests: int = 0
    served: int = 0
    batches: int = 0
    seconds: float = 0.0
    latency_p50_ms: float = 0.0
    latency_p95_ms: float = 0.0
    latency_p99_ms: float = 0.0
    latency_mean_ms: float = 0.0
    throughput_rps: float = 0.0
    batch_histogram: dict[int, int] = field(default_factory=dict)
    max_queue_depth: int = 0
    mean_batch_size: float = 0.0
    queue_capacity: int = 0
    admission: str = "block"
    shed_deadline: int = 0
    shed_capacity: int = 0
    shed_closed: int = 0
    rejected: int = 0
    admit_timeouts: int = 0
    cancelled: int = 0
    degraded_responses: int = 0
    breaker_state: str = "disabled"
    breaker_trips: int = 0

    @property
    def shed_total(self) -> int:
        """Requests refused or shed by overload protection."""
        return (self.shed_deadline + self.shed_capacity
                + self.shed_closed + self.rejected
                + self.admit_timeouts + self.cancelled)

    @property
    def shed_rate(self) -> float:
        """Fraction of submitted requests lost to overload protection."""
        return self.shed_total / self.requests if self.requests else 0.0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests, "served": self.served,
            "batches": self.batches,
            "seconds": self.seconds,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "latency_mean_ms": self.latency_mean_ms,
            "throughput_rps": self.throughput_rps,
            "batch_histogram": {str(k): v for k, v
                                in sorted(self.batch_histogram.items())},
            "max_queue_depth": self.max_queue_depth,
            "mean_batch_size": self.mean_batch_size,
            "queue_capacity": self.queue_capacity,
            "admission": self.admission,
            "shed_deadline": self.shed_deadline,
            "shed_capacity": self.shed_capacity,
            "shed_closed": self.shed_closed,
            "rejected": self.rejected,
            "admit_timeouts": self.admit_timeouts,
            "cancelled": self.cancelled,
            "shed_total": self.shed_total,
            "shed_rate": self.shed_rate,
            "degraded_responses": self.degraded_responses,
            "breaker_state": self.breaker_state,
            "breaker_trips": self.breaker_trips,
        }


@dataclass
class ServingReport:
    """Outputs (request order) plus the stats of the run.

    ``outputs`` keeps the historical array-per-request shape (``None``
    where a request was shed); ``responses`` holds the full
    :class:`ServedResponse` objects and ``errors`` the
    :class:`OverloadError` for every shed slot.
    """

    outputs: list[Optional[np.ndarray]]
    stats: ServingStats
    workers: int
    max_batch: int
    responses: list[Optional[ServedResponse]] = field(default_factory=list)
    errors: list[Optional[Exception]] = field(default_factory=list)


class BatchedServer:
    """Bounded queue + micro-batcher + worker pool over one graph.

    Parameters
    ----------
    graph:
        The deployment IR every worker serves.
    workers:
        Worker-pool width; also the number of runner replicas built.
    max_batch:
        Upper bound on the dynamic batch size.
    max_wait_ms:
        How long the batcher holds an open batch for stragglers.  The
        first queued request starts the clock; ``0`` degenerates to
        batch-per-request.  A member's deadline can cut the window
        short.
    queue_capacity:
        Bound on the admission queue.  Sustained overload hits this
        bound and resolves per the admission policy instead of growing
        memory without limit.
    admission:
        Full-queue policy: ``"block"`` (wait up to
        ``admission_timeout_ms``), ``"reject"`` (fail fast) or
        ``"shed-oldest"`` (evict the stalest queued request).
    admission_timeout_ms:
        How long a blocked ``submit()`` waits for a queue slot.
    guard_level / fault_plan / recovery:
        Forwarded to each worker's :class:`InferenceEngine`, same
        semantics as direct inference (the fused plan with guarded
        GEMM steps and a per-node NaN/Inf fence).  Unarmed, each worker
        serves a fused :class:`~repro.runtime.plan.GraphPlan` replica
        directly.  Arming either makes every response carry
        fault/fallback metadata.
    breaker:
        A :class:`~repro.robustness.recovery.BreakerPolicy` arms the
        circuit breaker: repeated faulty batches degrade the pool to
        per-runner numpy reference engines until a clean half-open
        probe.  ``None`` (default) disables it.
    backend / gemm_backend / accmem_bits:
        Forwarded to the plan/engine, same semantics as
        :class:`~repro.runtime.engine.InferenceEngine`.
    """

    def __init__(self, graph: GraphModel, *, workers: int = 2,
                 max_batch: int = 8, max_wait_ms: float = 2.0,
                 queue_capacity: int = 64, admission: str = "block",
                 admission_timeout_ms: float = 1000.0,
                 backend: str = "numpy",
                 gemm_backend: str = "auto",
                 accmem_bits: int = DEFAULT_ACCMEM_BITS,
                 guard_level: str = "off",
                 fault_plan: Optional[FaultPlan] = None,
                 recovery: Optional[RecoveryPolicy] = None,
                 breaker: Optional[BreakerPolicy] = None) -> None:
        if workers < 1:
            raise ServingError(f"workers must be >= 1, got {workers}")
        if max_batch < 1:
            raise ServingError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ServingError(
                f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if queue_capacity < 1:
            raise ServingError(
                f"queue_capacity must be >= 1, got {queue_capacity}")
        if admission_timeout_ms < 0:
            raise ServingError(f"admission_timeout_ms must be >= 0, "
                               f"got {admission_timeout_ms}")
        self.workers = workers
        self.max_batch = max_batch
        self.max_wait_s = max_wait_ms / 1000.0
        self.queue_capacity = queue_capacity
        self.admission = admission
        self.pack_cache = PackingCache()
        guarded = guard_level != "off" or fault_plan is not None
        self._breaker = (CircuitBreaker(breaker)
                         if breaker is not None else None)
        # Runner checkout is the backpressure point: the pool queue is
        # bounded at `workers`, and the batcher blocks on get() before
        # dispatching, so at most `workers` batches are ever in flight.
        self._runners: queue.Queue = queue.Queue(maxsize=workers)
        self._setup_runners(graph, guarded=guarded, backend=backend,
                            gemm_backend=gemm_backend,
                            accmem_bits=accmem_bits,
                            guard_level=guard_level,
                            fault_plan=fault_plan, recovery=recovery)
        self._pool = ThreadPoolExecutor(max_workers=workers)
        # Stats are written by batcher/worker/submitter threads and
        # drained by the client thread; lifecycle state orders submit()
        # against close().  Both disciplines are annotated and enforced
        # by `repro check --concurrency`.
        self._stats_lock = make_lock("BatchedServer._stats_lock")
        self._batch_sizes: Counter = Counter()  # repro: guarded-by(_stats_lock)
        self._queue_depths: list[int] = []      # repro: guarded-by(_stats_lock)
        self._counters: Counter = Counter()     # repro: guarded-by(_stats_lock)
        self._state_lock = make_lock("BatchedServer._state_lock")
        self._closed = False                    # repro: guarded-by(_state_lock)
        self._admission = AdmissionQueue(
            queue_capacity, policy=admission,
            timeout_s=admission_timeout_ms / 1000.0,
            on_shed=self._shed_evicted, sentinel=_STOP)
        # Testing hook: called with (route, batch) in the worker just
        # before execution; lets tests stall or observe batches
        # deterministically.  Never set in production.
        self._batch_hook = None
        self._batcher = threading.Thread(target=self._batch_loop,
                                         name="repro-batcher", daemon=True)
        self._batcher.start()

    def _setup_runners(self, graph: GraphModel, *, guarded: bool,
                       backend: str, gemm_backend: str,
                       accmem_bits: int, guard_level: str,
                       fault_plan: Optional[FaultPlan],
                       recovery: Optional[RecoveryPolicy]) -> None:
        """Fill ``self._runners`` with one :class:`_Runner` per slot.

        The thread-pool flavour builds in-process backends (a plan, or
        an engine running a guarded plan).
        :class:`~repro.runtime.sharding.ShardedServer` overrides exactly
        this hook to put process-backed runners into the same bounded
        pool -- every other dispatcher mechanism (admission, batching,
        breaker, stats) is shared.
        """
        for _ in range(self.workers):
            if guarded:
                primary: object = InferenceEngine(
                    graph, backend=backend, gemm_backend=gemm_backend,
                    accmem_bits=accmem_bits, guard_level=guard_level,
                    fault_plan=fault_plan, recovery=recovery)
            else:
                primary = compile_graph(
                    graph, backend=backend, gemm_backend=gemm_backend,
                    accmem_bits=accmem_bits, pack_cache=self.pack_cache)
            reference = None
            if self._breaker is not None:
                reference = InferenceEngine(graph, backend="numpy",
                                            accmem_bits=accmem_bits)
            self._runners.put(_Runner(primary=primary,
                                      reference=reference))

    # -- client API -----------------------------------------------------------

    def submit(self, x: np.ndarray, *,
               deadline_ms: Optional[float] = None) -> Future:
        """Enqueue one sample (no batch axis); resolves to a
        :class:`ServedResponse`.

        ``deadline_ms`` bounds the request's total time in the system:
        if it has not *started executing* within the budget it is shed
        with an :class:`OverloadError` (reason ``deadline``) instead of
        wasting a GEMM slot.  A full queue raises synchronously per the
        admission policy.
        """
        if deadline_ms is not None and deadline_ms <= 0:
            raise ServingError(
                f"deadline_ms must be positive, got {deadline_ms}")
        now = time.perf_counter()
        request = _Request(
            x=np.asarray(x, dtype=np.float64), future=Future(),
            submitted=now,
            deadline=(now + deadline_ms / 1000.0
                      if deadline_ms is not None else None),
            deadline_ms=deadline_ms)
        request.future._repro_request = request
        # The closed check is ordered under _state_lock, but the
        # (possibly blocking) enqueue happens outside it so a blocked
        # submit can never stall close().  The re-check below plus the
        # batcher's drain-and-shed pass close the resulting race: a
        # request that lands behind _STOP is resolved with reason
        # "closed" by whichever side sees it first (double resolution
        # is idempotent via InvalidStateError).
        with self._state_lock:
            closed = self._closed
        if closed:
            raise ServingError("submit() on a closed server")
        try:
            self._admission.put(request)
        except OverloadError as exc:
            self._count(_REASON_COUNTERS[exc.reason])
            raise
        with self._state_lock:
            closed = self._closed
        if closed:
            self._resolve_overload(request, reason="closed")
        return request.future

    def run_requests(self, inputs: Sequence[np.ndarray], *,
                     deadline_ms: Optional[float] = None,
                     tolerate_overload: bool = False) -> ServingReport:
        """Submit every sample, wait for all, and report the window.

        With ``tolerate_overload`` rejected/shed requests become
        ``None`` outputs (their :class:`OverloadError` lands in
        ``report.errors``) instead of raising -- the mode load tests
        use to drive the server past capacity.
        """
        t0 = time.perf_counter()
        slots: list[Union[Future, Exception]] = []
        for x in inputs:
            try:
                slots.append(self.submit(x, deadline_ms=deadline_ms))
            except OverloadError as exc:
                if not tolerate_overload:
                    raise
                slots.append(exc)
        outputs: list[Optional[np.ndarray]] = []
        responses: list[Optional[ServedResponse]] = []
        errors: list[Optional[Exception]] = []
        for slot in slots:
            if isinstance(slot, Exception):
                outputs.append(None)
                responses.append(None)
                errors.append(slot)
                continue
            try:
                response = slot.result()
            except OverloadError as exc:
                if not tolerate_overload:
                    raise
                outputs.append(None)
                responses.append(None)
                errors.append(exc)
                continue
            outputs.append(response.output)
            responses.append(response)
            errors.append(None)
        seconds = time.perf_counter() - t0
        stats = self._window_stats(len(inputs), seconds, responses)
        return ServingReport(outputs=outputs, stats=stats,
                             workers=self.workers,
                             max_batch=self.max_batch,
                             responses=responses, errors=errors)

    def overload_snapshot(self) -> dict:
        """Live overload observability (non-destructive, for CLIs)."""
        with self._stats_lock:
            counters = dict(self._counters)
        snap = {
            "queue_depth": self._admission.qsize(),
            "queue_capacity": self.queue_capacity,
            "admission": self.admission,
            "counters": counters,
            "breaker": (self._breaker.snapshot()
                        if self._breaker is not None else None),
        }
        return snap

    def close(self) -> None:
        """Stop accepting work, drain in-flight batches, shut down.

        Requests still queued when the sentinel lands are shed with
        reason ``closed`` -- every admitted future resolves.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        self._admission.put_sentinel(_STOP)
        self._batcher.join()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "BatchedServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ------------------------------------------------------------

    def _window_stats(self, submitted: int, seconds: float,
                      responses: Sequence[Optional[ServedResponse]],
                      ) -> ServingStats:
        """Drain the window's accounting into one ServingStats."""
        with self._stats_lock:
            histogram = dict(self._batch_sizes)
            depths = list(self._queue_depths)
            counters = dict(self._counters)
            self._batch_sizes.clear()
            self._queue_depths.clear()
            self._counters.clear()
        latencies = sorted(r.latency_ms for r in responses
                           if r is not None)
        n = len(latencies)
        batches = sum(histogram.values())
        breaker_state = "disabled"
        breaker_trips = 0
        if self._breaker is not None:
            snap = self._breaker.snapshot()
            breaker_state = snap["state"]
            breaker_trips = snap["trips"]
        return ServingStats(
            requests=submitted, served=n, batches=batches,
            seconds=seconds,
            latency_p50_ms=float(np.percentile(latencies, 50)) if n else 0.0,
            latency_p95_ms=float(np.percentile(latencies, 95)) if n else 0.0,
            latency_p99_ms=float(np.percentile(latencies, 99)) if n else 0.0,
            latency_mean_ms=float(np.mean(latencies)) if n else 0.0,
            throughput_rps=n / seconds if seconds > 0 else 0.0,
            batch_histogram=histogram,
            max_queue_depth=max(depths, default=0),
            mean_batch_size=(n / batches) if batches else 0.0,
            queue_capacity=self.queue_capacity,
            admission=self.admission,
            shed_deadline=counters.get("shed_deadline", 0),
            shed_capacity=counters.get("shed_capacity", 0),
            shed_closed=counters.get("shed_closed", 0),
            rejected=counters.get("rejected", 0),
            admit_timeouts=counters.get("admit_timeouts", 0),
            cancelled=counters.get("cancelled", 0),
            degraded_responses=counters.get("degraded_responses", 0),
            breaker_state=breaker_state,
            breaker_trips=breaker_trips,
        )

    def _count(self, key: str, n: int = 1) -> None:
        with self._stats_lock:
            self._counters[key] += n

    def _resolve_overload(self, request: _Request, *, reason: str,
                          message: Optional[str] = None) -> None:
        """Resolve a request's future with a structured OverloadError.

        Idempotent: close/shed races can reach the same request twice,
        and the loser's InvalidStateError is deliberately swallowed.
        """
        request.completed = time.perf_counter()
        if message is None:
            message = {
                "deadline": "deadline expired before execution",
                "shed": "shed by shed-oldest admission under overload",
                "closed": "request raced a server shutdown",
            }.get(reason, reason)
        exc = OverloadError(message, reason=reason,
                            queue_depth=self._admission.qsize(),
                            deadline_ms=request.deadline_ms)
        try:
            request.future.set_exception(exc)
        except InvalidStateError:
            return  # already resolved/cancelled by the other side
        self._count(_REASON_COUNTERS[reason])

    def _shed_evicted(self, request: _Request) -> None:
        """AdmissionQueue on_shed hook (runs on the submitting thread)."""
        self._resolve_overload(request, reason="shed")

    def _expired_or_cancelled(self, request: _Request,
                              now: float) -> bool:
        """Shed-at-pop filter run by the batcher for every request."""
        if request.future.cancelled():
            self._count("cancelled")
            return True
        if request.deadline is not None and now >= request.deadline:
            self._resolve_overload(request, reason="deadline")
            return True
        return False

    def _drain_closed(self) -> None:
        """After _STOP: shed whatever is still queued (reason closed)."""
        while True:
            try:
                item = self._admission.get_nowait()
            except queue.Empty:
                return
            if item is _STOP:
                continue
            self._resolve_overload(item, reason="closed")

    def _batch_loop(self) -> None:
        """Collect requests into deadline-bounded batches; dispatch."""
        while True:
            first = self._admission.get()
            if first is _STOP:
                self._drain_closed()
                return
            now = time.perf_counter()
            if self._expired_or_cancelled(first, now):
                continue
            batch = [first]
            # The batch is cut at the straggler window *or* the
            # earliest member deadline, whichever comes first: a
            # near-deadline request is never held waiting for company
            # it cannot afford.
            cut = now + self.max_wait_s
            if first.deadline is not None:
                cut = min(cut, first.deadline)
            stop = False
            while len(batch) < self.max_batch:
                remaining = cut - time.perf_counter()
                if remaining <= 0:
                    break
                try:
                    item = self._admission.get(timeout=remaining)
                except queue.Empty:
                    break
                if item is _STOP:
                    stop = True
                    break
                if self._expired_or_cancelled(item,
                                              time.perf_counter()):
                    continue
                batch.append(item)
                if item.deadline is not None:
                    cut = min(cut, item.deadline)
            with self._stats_lock:
                self._queue_depths.append(self._admission.qsize())
            # Mixed sample shapes cannot share one np.stack; split the
            # batch into shape-homogeneous sub-batches (rare path).
            by_shape: dict[tuple[int, ...], list[_Request]] = {}
            for request in batch:
                by_shape.setdefault(request.x.shape, []).append(request)
            for group in by_shape.values():
                with self._stats_lock:
                    self._batch_sizes[len(group)] += 1
                # Blocking checkout BEFORE dispatch: this is the
                # backpressure that keeps admitted-but-undispatched
                # work inside the bounded queue.
                runner = self._runners.get()
                self._pool.submit(self._run_batch, runner, group)
            if stop:
                self._drain_closed()
                return

    def _run_batch(self, runner: _Runner,
                   batch: list[_Request]) -> None:
        """Execute one shape-homogeneous batch on its checked-out runner."""
        route = "primary"
        try:
            # Last-chance shed: deadlines may have expired while the
            # batch sat waiting for a runner, and clients may have
            # cancelled.  set_running_or_notify_cancel() atomically
            # claims each future against a concurrent cancel.
            now = time.perf_counter()
            live: list[_Request] = []
            for request in batch:
                if (request.deadline is not None
                        and now >= request.deadline):
                    self._resolve_overload(request, reason="deadline")
                    continue
                if not request.future.set_running_or_notify_cancel():
                    self._count("cancelled")
                    continue
                live.append(request)
            if self._breaker is not None:
                route = self._breaker.route()
            if not live:
                if route == "probe":
                    self._breaker.cancel_probe()
                return
            if self._batch_hook is not None:
                self._batch_hook(route, live)
            backend = runner.primary
            if route == "reference" and runner.reference is not None:
                backend = runner.reference
            stacked = np.stack([r.x for r in live])
            result = backend.run(stacked)
            events = list(getattr(result, "fault_events", []))
            recovered = tuple(getattr(result, "recovered_layers", []))
            if self._breaker is not None and route != "reference":
                self._breaker.record(bool(events),
                                     probe=(route == "probe"))
            breaker_state = (self._breaker.state()
                             if self._breaker is not None else "disabled")
            degraded = route == "reference"
            notes = tuple(
                f"{e.layer}: fell back to reference backend "
                f"(detected by {e.detected_by})"
                for e in events if e.action == "fallback")
            notes += tuple(
                f"{e.layer}: {e.message}"
                for e in events if e.action == "respawn")
            if degraded:
                notes += ("batch served by reference backend: "
                          "circuit breaker open",)
            done = time.perf_counter()
            for i, request in enumerate(live):
                request.completed = done
                response = ServedResponse(
                    output=result.output[i],
                    latency_ms=(done - request.submitted) * 1000.0,
                    degraded=degraded,
                    breaker_state=breaker_state,
                    warnings=notes,
                    recovered_layers=recovered,
                    fault_detections=len(events))
                try:
                    request.future.set_result(response)
                except InvalidStateError:
                    continue  # lost a shutdown/cancel race; shed wins
            if degraded:
                self._count("degraded_responses", len(live))
        except BaseException as exc:  # pragma: no cover - defensive
            if self._breaker is not None and route == "probe":
                self._breaker.cancel_probe()
            for request in batch:
                request.completed = time.perf_counter()
                try:
                    request.future.set_exception(exc)
                except InvalidStateError:
                    continue
        finally:
            self._runners.put(runner)


def serve(graph: GraphModel, *, processes: bool = False,
          start_method: str = "spawn", **kwargs) -> BatchedServer:
    """Build a server: threaded pool or process shards, one API.

    ``processes=False`` (default) returns a :class:`BatchedServer`.
    ``processes=True`` returns a
    :class:`~repro.runtime.sharding.ShardedServer`; when the
    environment cannot support process sharding (no ``spawn`` start
    method, shared memory unavailable, worker startup failure) the
    factory degrades to the threaded pool and emits a structured
    :class:`~repro.robustness.errors.ReliabilityWarning` instead of
    failing -- the caller still gets a working server with identical
    semantics.  Misuse (guards or fault injection with
    ``processes=True``) raises :class:`ServingError` and does *not*
    fall back: that is a configuration error, not an environment
    limitation.
    """
    if not processes:
        return BatchedServer(graph, **kwargs)
    from .sharding import ShardedServer, ShardingUnavailable

    try:
        return ShardedServer(graph, start_method=start_method, **kwargs)
    except ShardingUnavailable as exc:
        warnings.warn(ReliabilityWarning(
            f"process sharding unavailable ({exc}); serving from the "
            f"threaded pool instead"), stacklevel=2)
        return BatchedServer(graph, **kwargs)


def scaling_sweep(graph: GraphModel, inputs: Sequence[np.ndarray], *,
                  worker_counts: Sequence[int] = (1, 2, 4),
                  max_batch: int = 8, max_wait_ms: float = 2.0,
                  backend: str = "numpy", gemm_backend: str = "auto",
                  queue_capacity: int = 64, admission: str = "block",
                  deadline_ms: Optional[float] = None) -> list[dict]:
    """Throughput rows for increasing worker counts (benchmark helper)."""
    rows = []
    for workers in worker_counts:
        with BatchedServer(graph, workers=workers, max_batch=max_batch,
                           max_wait_ms=max_wait_ms, backend=backend,
                           gemm_backend=gemm_backend,
                           queue_capacity=queue_capacity,
                           admission=admission) as server:
            report = server.run_requests(inputs, deadline_ms=deadline_ms,
                                         tolerate_overload=True)
        rows.append({
            "workers": workers,
            "requests": report.stats.requests,
            "served": report.stats.served,
            "throughput_rps": report.stats.throughput_rps,
            "latency_p50_ms": report.stats.latency_p50_ms,
            "latency_p95_ms": report.stats.latency_p95_ms,
            "latency_p99_ms": report.stats.latency_p99_ms,
            "shed_rate": report.stats.shed_rate,
            "mean_batch_size": report.stats.mean_batch_size,
        })
    return rows
