"""Process-sharded serving: one dispatcher, N shared-nothing workers.

The threaded pool in :mod:`repro.runtime.serving` only scales while its
workers sit inside GIL-releasing numpy sections; on a multi-core host
the measured worker scaling is flat to negative (see
``BENCH_serving.json``).  This module shards the *execution* across
processes while keeping every control-plane concern -- admission queue,
deadlines, micro-batching, circuit breaker, stats -- in the dispatcher:

* :class:`ShardedServer` subclasses :class:`~repro.runtime.serving.
  BatchedServer` and replaces only the runner construction: each
  runner's primary backend becomes a :class:`_WorkerHandle`, a proxy
  whose ``run(batch)`` round-trips over a dedicated pipe to a worker
  process.  The pipe wait releases the GIL, so the dispatcher's worker
  threads overlap fully;
* the compiled :class:`~repro.runtime.plan.GraphPlan` is exported
  **once** into a shared-memory segment
  (:func:`~repro.runtime.plan.export_plan`); every worker attaches and
  rebuilds its plan directly on the shared buffers
  (:func:`~repro.runtime.plan.attach_plan`), then releases its source
  graph -- N workers, one copy of the weights, no per-worker packing;
* workers are started with the ``spawn`` method: the dispatcher runs
  batcher and pool threads, and forking a multi-threaded process is
  undefined behaviour waiting to happen;
* a worker crash (including ``kill -9``) surfaces as a broken pipe;
  the handle respawns the worker against the *still-live* segment and
  re-runs the batch once, tagging the result with a synthetic
  ``respawn`` fault event so the existing
  :class:`~repro.runtime.overload.CircuitBreaker` accounting sees it:
  repeated crashes open the circuit and batches degrade to the
  dispatcher-local reference engines until a half-open probe passes.
  Futures never leak -- the retried batch resolves them normally;
* lifecycle: ``close()`` drains the dispatcher (inherited), stops every
  worker, then closes **and unlinks** the segment.  Workers only ever
  close their mapping; the dispatcher owns the unlink.

When process sharding cannot work in the current environment (no spawn
start method, shared memory unavailable in a sandbox), construction
raises :class:`ShardingUnavailable`; the
:func:`~repro.runtime.serving.serve` factory catches exactly that and
degrades to the threaded pool with a structured
:class:`~repro.robustness.errors.ReliabilityWarning`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import Optional

from repro.core.errors import ReproError
from repro.core.locks import make_lock
from repro.robustness.recovery import FaultEvent

from .engine import InferenceEngine, InferenceResult, LayerStats
from .graph import GraphModel
from .plan import (
    PlanShareError,
    SharedPlan,
    SharedPlanHandle,
    attach_plan,
    compile_graph,
    export_plan,
    plan_share_stats,
)
from .serving import BatchedServer, ServingError, _Runner


class ShardingUnavailable(ReproError, RuntimeError):
    """Process sharding cannot run in this environment (no usable
    multiprocessing start method, shared memory unavailable, worker
    startup failed).  The :func:`~repro.runtime.serving.serve` factory
    treats this as a degradation signal, not a hard error."""


class WorkerCrashError(ReproError, RuntimeError):
    """A worker process died while a batch was in flight."""


def _rss_bytes() -> int:
    """Resident set size of this process in bytes (0 if unreadable)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def _worker_main(conn, handle: SharedPlanHandle) -> None:
    """Entry point of one worker process (``spawn`` start method).

    Attaches the shared plan, releases the rebuilt source graph (the
    float64 weights would otherwise stay resident per worker), then
    serves ``run``/``stats`` requests off its pipe until ``stop`` or a
    dispatcher disappearance (EOF).  Exceptions travel back as
    ``("error", text)`` tuples; the worker never dies on a bad batch.
    """
    attached = None
    try:
        try:
            attached = attach_plan(handle)
            attached.plan.release_source()
        except Exception as exc:
            conn.send(("failed", f"{type(exc).__name__}: {exc}"))
            return
        conn.send(("ready", os.getpid()))
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "stop":
                return
            try:
                if op == "run":
                    result = attached.plan.run(msg[1])
                    stats = [(s.op, s.config, s.macs, s.cycles, s.layer)
                             for s in result.layer_stats]
                    conn.send(("ok", (result.output, stats)))
                elif op == "stats":
                    payload = plan_share_stats(attached.plan,
                                               attached.buf)
                    payload["pid"] = os.getpid()
                    payload["rss_bytes"] = _rss_bytes()
                    conn.send(("ok", payload))
                else:
                    conn.send(("error", f"unknown worker op {op!r}"))
            except Exception as exc:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
    except (EOFError, OSError, KeyboardInterrupt):
        return  # dispatcher gone or interrupted: exit quietly
    finally:
        if attached is not None:
            attached.close()
        conn.close()


class _WorkerHandle:
    """Dispatcher-side proxy for one worker process.

    Presents the same ``run(stacked) -> InferenceResult`` surface as a
    compiled plan, so :meth:`BatchedServer._run_batch` uses it
    unchanged.  Each handle owns a dedicated duplex pipe; the runner-
    checkout discipline means at most one dispatcher thread uses a
    handle at a time, but every pipe/process access still happens under
    ``_lock`` so the concurrency analyzer (and the half-open probe
    path) have an enforced contract rather than a convention.
    """

    def __init__(self, ctx, handle: SharedPlanHandle, index: int, *,
                 spawn_timeout_s: float = 60.0) -> None:
        self._ctx = ctx
        self._handle = handle
        self.index = index
        self._spawn_timeout_s = spawn_timeout_s
        self._lock = make_lock(f"_WorkerHandle[{index}]._lock")
        self._proc = None       # repro: guarded-by(_lock)
        self._conn = None       # repro: guarded-by(_lock)
        self._respawns = 0      # repro: guarded-by(_lock)
        with self._lock:
            self._spawn()

    # -- lifecycle ----------------------------------------------------

    def _spawn(self) -> None:
        """Start the worker and wait for its attach handshake.

        Callers hold ``_lock``.  A worker that cannot attach the shared
        segment reports ``("failed", reason)`` and the spawn raises
        :class:`ShardingUnavailable` -- at construction time the server
        factory turns that into a threaded-pool fallback.
        """
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(child, self._handle),
            name=f"repro-shard-{self.index}", daemon=True)
        try:
            proc.start()
        except (OSError, ValueError) as exc:
            parent.close()
            child.close()
            raise ShardingUnavailable(
                f"cannot start worker {self.index}: {exc}") from exc
        child.close()
        try:
            if not parent.poll(self._spawn_timeout_s):
                raise ShardingUnavailable(
                    f"worker {self.index} did not report ready within "
                    f"{self._spawn_timeout_s:.0f}s")
            msg = parent.recv()
        except (EOFError, OSError) as exc:
            parent.close()
            proc.terminate()
            proc.join(timeout=5.0)
            raise ShardingUnavailable(
                f"worker {self.index} died during startup: {exc}"
            ) from exc
        except ShardingUnavailable:
            parent.close()
            proc.terminate()
            proc.join(timeout=5.0)
            raise
        if msg[0] != "ready":
            parent.close()
            proc.join(timeout=5.0)
            raise ShardingUnavailable(
                f"worker {self.index} failed to attach the shared "
                f"plan: {msg[1]}")
        self._proc = proc
        self._conn = parent

    def _respawn(self) -> None:
        """Replace a dead worker (callers hold ``_lock``).

        The shared segment outlives its attachers, so the replacement
        attaches the *same* weights -- no repacking, no second copy.
        """
        if self._conn is not None:
            self._conn.close()
        if self._proc is not None:
            self._proc.join(timeout=1.0)
            if self._proc.is_alive():
                self._proc.terminate()
                self._proc.join(timeout=5.0)
        self._conn = None
        self._proc = None
        self._respawns += 1
        self._spawn()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Ask the worker to exit; escalate to terminate on timeout."""
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.send(("stop",))
                except (OSError, ValueError):
                    pass  # already dead; join/terminate below applies
                self._conn.close()
                self._conn = None
            if self._proc is not None:
                self._proc.join(timeout=timeout_s)
                if self._proc.is_alive():
                    self._proc.terminate()
                    self._proc.join(timeout=timeout_s)
                self._proc = None

    # -- the plan surface ---------------------------------------------

    def run(self, stacked) -> InferenceResult:
        """Execute one batch on the worker; respawn + retry on crash.

        A successful retry appends a synthetic ``respawn`` fault event
        so the circuit breaker counts the crash; the batch's futures
        resolve from the retried result, keeping the zero-lost-futures
        invariant.  A second crash on the retry propagates as
        :class:`WorkerCrashError` (with the breaker armed, subsequent
        batches route to the reference engines).
        """
        with self._lock:
            try:
                return self._roundtrip(stacked)
            except WorkerCrashError:
                self._respawn()
                result = self._roundtrip(stacked)
                result.fault_events.append(FaultEvent(
                    layer=f"shard-worker-{self.index}", op="serve",
                    detected_by="pipe", action="respawn",
                    message="worker process died mid-batch; respawned "
                            "on the shared segment and re-ran the "
                            "batch"))
                return result

    def _roundtrip(self, stacked) -> InferenceResult:
        """One send/recv cycle (callers hold ``_lock``)."""
        conn = self._conn
        try:
            conn.send(("run", stacked))
            status, payload = conn.recv()
        except (EOFError, OSError, ValueError) as exc:
            raise WorkerCrashError(
                f"worker {self.index} died mid-batch: "
                f"{type(exc).__name__}") from exc
        if status != "ok":
            raise ServingError(
                f"worker {self.index} failed the batch: {payload}")
        output, stats = payload
        result = InferenceResult(output=output, guard_level="off")
        result.layer_stats.extend(
            LayerStats(op=op, config=config, macs=macs, cycles=cycles,
                       layer=layer)
            for op, config, macs, cycles, layer in stats)
        return result

    def stats(self) -> dict:
        """Worker-side zero-copy accounting (plan bytes, RSS, pid)."""
        with self._lock:
            try:
                self._conn.send(("stats",))
                status, payload = self._conn.recv()
            except (EOFError, OSError, ValueError) as exc:
                raise WorkerCrashError(
                    f"worker {self.index} died during stats: "
                    f"{type(exc).__name__}") from exc
            if status != "ok":
                raise ServingError(
                    f"worker {self.index} stats failed: {payload}")
            payload["respawns"] = self._respawns
            return payload

    def pid(self) -> Optional[int]:
        """The worker's OS pid (crash-injection tests kill it)."""
        with self._lock:
            return self._proc.pid if self._proc is not None else None


class ShardedServer(BatchedServer):
    """Process-sharded :class:`BatchedServer`: same API, real cores.

    The dispatcher (this object) keeps the whole overload stack --
    admission queue, deadlines, batching, breaker, stats -- and fans
    shape-homogeneous batches out to worker processes that execute a
    zero-copy shared plan.  Construction raises
    :class:`ShardingUnavailable` when the environment cannot support
    it; :func:`~repro.runtime.serving.serve` turns that into a threaded
    fallback.  Only compiled, guard-free configurations shard: guards
    and fault injection need the engine recovery machinery and stay on
    the threaded pool.

    Extra parameter ``start_method`` defaults to ``"spawn"`` -- the
    dispatcher is multi-threaded, and forking a multi-threaded process
    can deadlock in the child.
    """

    def __init__(self, graph: GraphModel, *, compiled: bool = True,
                 guard_level: str = "off", fault_plan=None,
                 recovery=None, start_method: str = "spawn",
                 **kwargs) -> None:
        if not compiled or guard_level != "off" or fault_plan is not None:
            raise ServingError(
                "process sharding serves compiled plans only; guards "
                "and fault injection need the engine's recovery "
                "machinery -- use the threaded BatchedServer")
        self._start_method = start_method
        self._shared: Optional[SharedPlan] = None
        self._handles: list[_WorkerHandle] = []
        super().__init__(graph, compiled=True, guard_level="off",
                         fault_plan=None, recovery=recovery, **kwargs)

    # -- runner construction hook -------------------------------------

    def _setup_runners(self, graph: GraphModel, *, guarded: bool,
                       backend: str, gemm_backend: str,
                       accmem_bits: int, guard_level: str,
                       fault_plan, recovery) -> None:
        try:
            ctx = mp.get_context(self._start_method)
        except ValueError as exc:
            raise ShardingUnavailable(
                f"multiprocessing start method "
                f"{self._start_method!r} unavailable: {exc}") from exc
        plan = compile_graph(graph, backend=backend,
                             gemm_backend=gemm_backend,
                             accmem_bits=accmem_bits,
                             pack_cache=self.pack_cache)
        try:
            self._shared = export_plan(plan)
        except PlanShareError as exc:
            raise ShardingUnavailable(str(exc)) from exc
        ok = False
        try:
            for index in range(self.workers):
                worker = _WorkerHandle(ctx, self._shared.handle, index)
                self._handles.append(worker)
                reference = None
                if self._breaker is not None:
                    reference = InferenceEngine(graph, backend="numpy",
                                                accmem_bits=accmem_bits)
                self._runners.put(_Runner(primary=worker,
                                          reference=reference))
            ok = True
        finally:
            if not ok:
                self._teardown_processes()

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Drain the dispatcher, stop every worker, unlink the segment."""
        super().close()
        self._teardown_processes()

    def _teardown_processes(self) -> None:
        for worker in self._handles:
            worker.stop()
        self._handles = []
        if self._shared is not None:
            self._shared.close()
            self._shared.unlink()
            self._shared = None

    # -- observability ------------------------------------------------

    def worker_pids(self) -> list[Optional[int]]:
        return [worker.pid() for worker in self._handles]

    def plan_memory_report(self) -> dict:
        """Zero-copy proof per worker: one segment, N attached views.

        Checks every runner out of the pool first so the pipes are
        quiescent -- call between measurement windows, not mid-load.
        ``plan_bytes_private`` should be 0 for every worker; the
        segment holds the single shared copy.
        """
        runners = [self._runners.get() for _ in range(self.workers)]
        try:
            rows = [runner.primary.stats() for runner in runners
                    if isinstance(runner.primary, _WorkerHandle)]
        finally:
            for runner in runners:
                self._runners.put(runner)
        return {
            "segment_bytes": (self._shared.handle.total_bytes
                              if self._shared is not None else 0),
            "dispatcher_rss_bytes": _rss_bytes(),
            "workers": rows,
        }


__all__ = [
    "ShardedServer",
    "ShardingUnavailable",
    "WorkerCrashError",
]
