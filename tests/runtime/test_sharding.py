"""Process-sharded serving: exactness, zero-copy, crash recovery."""

import os
import signal
import time
import warnings

import numpy as np
import pytest

from repro.robustness.errors import ReliabilityWarning
from repro.robustness.faults import FaultPlan, demo_graph
from repro.robustness.recovery import BreakerPolicy
from repro.runtime.engine import InferenceEngine
from repro.runtime.serving import BatchedServer, ServingError, serve
from repro.runtime.sharding import ShardedServer, ShardingUnavailable


@pytest.fixture(scope="module")
def graph():
    return demo_graph()


def _inputs(n, size=6, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((1, size, size)) for _ in range(n)]


def _shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # pragma: no cover - non-POSIX-shm platform
        return set()


class TestCorrectness:
    def test_outputs_bit_exact_vs_direct_inference(self, graph):
        inputs = _inputs(16, seed=1)
        engine = InferenceEngine(graph, backend="mixgemm")
        with ShardedServer(graph, workers=2, max_batch=4,
                           backend="mixgemm") as server:
            report = server.run_requests(inputs)
        for x, out in zip(inputs, report.outputs):
            assert np.array_equal(out, engine.run(x[None]).output[0])

    def test_matches_threaded_server(self, graph):
        inputs = _inputs(12, seed=2)
        with BatchedServer(graph, workers=2, backend="mixgemm") as server:
            threaded = server.run_requests(inputs)
        with ShardedServer(graph, workers=2, backend="mixgemm") as server:
            sharded = server.run_requests(inputs)
        for a, b in zip(threaded.outputs, sharded.outputs):
            assert np.array_equal(a, b)


class TestBatchingPolicy:
    def test_lone_request_on_idle_pool_is_not_held(self, graph):
        with ShardedServer(graph, workers=2, backend="mixgemm",
                           max_wait_ms=10_000.0) as server:
            response = server.submit(_inputs(1)[0]).result(timeout=5)
        assert response.latency_ms < 2_000


class TestZeroCopy:
    def test_one_segment_no_private_plan_bytes(self, graph):
        with ShardedServer(graph, workers=2, backend="mixgemm") as server:
            report = server.plan_memory_report()
        assert report["segment_bytes"] > 0
        assert len(report["workers"]) == 2
        for row in report["workers"]:
            assert row["plan_bytes_private"] == 0
            assert row["plan_bytes_shared"] == row["plan_bytes_total"]
            assert row["rss_bytes"] > 0

    def test_distinct_worker_processes(self, graph):
        with ShardedServer(graph, workers=2, backend="mixgemm") as server:
            pids = server.worker_pids()
        assert len(set(pids)) == 2
        assert os.getpid() not in pids


class TestLifecycle:
    def test_no_leaked_segments_after_close(self, graph):
        before = _shm_entries()
        with ShardedServer(graph, workers=2, backend="mixgemm") as server:
            server.run_requests(_inputs(8, seed=3))
        assert _shm_entries() == before

    def test_close_idempotent(self, graph):
        server = ShardedServer(graph, workers=1, backend="mixgemm")
        server.run_requests(_inputs(4, seed=4))
        server.close()
        server.close()

    def test_guarded_configs_refused(self, graph):
        with pytest.raises(ServingError, match="threaded"):
            ShardedServer(graph, guard_level="full")
        with pytest.raises(ServingError, match="unguarded plans only"):
            ShardedServer(graph, fault_plan=FaultPlan.generate(seed=0))


class TestCrashRecovery:
    def test_kill9_recovers_with_zero_lost_futures(self, graph):
        inputs = _inputs(32, seed=5)
        engine = InferenceEngine(graph, backend="mixgemm")
        with ShardedServer(
                graph, workers=2, max_batch=4, backend="mixgemm",
                breaker=BreakerPolicy(failure_threshold=3)) as server:
            victim = server.worker_pids()[0]
            futures = []
            for i, x in enumerate(inputs):
                futures.append(server.submit(x))
                if i == 7:
                    os.kill(victim, signal.SIGKILL)
                time.sleep(0.002)  # keep batches flowing past the kill
            responses = [f.result(timeout=60.0) for f in futures]
            pids = server.worker_pids()
        assert len(responses) == len(inputs)  # zero lost futures
        notes = [w for r in responses for w in r.warnings]
        assert any("respawned" in n for n in notes)
        assert victim not in pids  # the dead worker was replaced
        for x, r in zip(inputs, responses):
            assert np.array_equal(r.output,
                                  engine.run(x[None]).output[0])

    def test_kill9_leaves_no_segments_behind(self, graph):
        before = _shm_entries()
        with ShardedServer(graph, workers=1, backend="mixgemm",
                           breaker=BreakerPolicy(failure_threshold=3)
                           ) as server:
            os.kill(server.worker_pids()[0], signal.SIGKILL)
            report = server.run_requests(_inputs(6, seed=6))
        assert len(report.outputs) == 6
        assert _shm_entries() == before


class TestServeFactory:
    def test_processes_true_builds_sharded_server(self, graph):
        with serve(graph, processes=True, workers=1,
                   backend="mixgemm") as server:
            assert isinstance(server, ShardedServer)

    def test_processes_false_builds_threaded_server(self, graph):
        with serve(graph, workers=1) as server:
            assert type(server) is BatchedServer

    def test_fallback_when_shared_memory_unavailable(
            self, graph, monkeypatch):
        """shm failure degrades to threads with a ReliabilityWarning."""
        from repro.runtime import plan as plan_mod

        def _refuse(*args, **kwargs):
            raise OSError("shared memory disabled in this sandbox")

        monkeypatch.setattr(plan_mod.shared_memory, "SharedMemory",
                            _refuse)
        with pytest.warns(ReliabilityWarning, match="threaded"):
            server = serve(graph, processes=True, workers=2,
                           backend="mixgemm")
        try:
            assert type(server) is BatchedServer
            report = server.run_requests(_inputs(6, seed=7))
            assert len(report.outputs) == 6
        finally:
            server.close()

    def test_misuse_is_not_downgraded(self, graph):
        """ServingError (caller bug) must propagate, never fall back."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ServingError):
                serve(graph, processes=True, guard_level="full")

    def test_sharding_unavailable_direct_construction(
            self, graph, monkeypatch):
        """Without the factory, the environment failure is typed."""
        from repro.runtime import plan as plan_mod

        def _refuse(*args, **kwargs):
            raise OSError("no shm")

        monkeypatch.setattr(plan_mod.shared_memory, "SharedMemory",
                            _refuse)
        with pytest.raises(ShardingUnavailable):
            ShardedServer(graph, workers=1, backend="mixgemm")


class TestAnalyzerCoverage:
    def test_concurrency_analyzer_clean_over_sharding(self):
        from repro.analysis.concurrency import (
            annotated_targets,
            check_concurrency,
        )
        import repro.runtime.sharding as sharding

        targets = annotated_targets()
        assert sharding.__file__ in targets
        report = check_concurrency([sharding.__file__])
        assert report.errors == []
