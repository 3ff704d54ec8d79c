"""Batched multi-worker serving: correctness, batching, stats, limits."""

import numpy as np
import pytest

from repro.robustness.faults import demo_graph, demo_input
from repro.runtime.engine import InferenceEngine
from repro.runtime.serving import (
    BatchedServer,
    ServingError,
    scaling_sweep,
)


@pytest.fixture(scope="module")
def graph():
    return demo_graph()


def _inputs(n, size=6, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((1, size, size)) for _ in range(n)]


class TestCorrectness:
    def test_outputs_match_direct_inference(self, graph):
        inputs = _inputs(12)
        engine = InferenceEngine(graph, backend="mixgemm")
        with BatchedServer(graph, workers=2, max_batch=4,
                           backend="mixgemm") as server:
            report = server.run_requests(inputs)
        for x, out in zip(inputs, report.outputs):
            expected = engine.run(x[None]).output[0]
            assert np.array_equal(out, expected)

    def test_batching_does_not_change_results(self, graph):
        """Batch of b identical samples == b independent runs."""
        inputs = [_inputs(1)[0]] * 6
        with BatchedServer(graph, workers=1, max_batch=6,
                           max_wait_ms=50.0) as server:
            report = server.run_requests(inputs)
        first = report.outputs[0]
        for out in report.outputs[1:]:
            assert np.array_equal(out, first)

    def test_guarded_runners_match_plans(self, graph):
        """Light guards serve through engines running unfused guarded
        plans; a clean run must not change a single output bit."""
        inputs = _inputs(8)
        with BatchedServer(graph, workers=2) as server:
            plain = server.run_requests(inputs)
        with BatchedServer(graph, workers=2,
                           guard_level="light") as server:
            guarded = server.run_requests(inputs)
        for a, b in zip(plain.outputs, guarded.outputs):
            assert np.array_equal(a, b)

    def test_mixed_shapes_split_into_subbatches(self):
        # Needs a size-agnostic head: global average pooling, not the
        # demo graph's fixed-size flatten -> linear.
        from repro.nn.layers import (
            GlobalAvgPool2d,
            LayerQuantSpec,
            QuantConv2d,
            QuantLinear,
            ReLU,
            Sequential,
            seed_init,
        )
        from repro.runtime.graph import export_sequential

        seed_init(3)
        spec = LayerQuantSpec(act_bits=8, weight_bits=8, act_signed=True)
        model = Sequential(
            QuantConv2d(1, 4, 3, spec=spec, padding=1), ReLU(),
            GlobalAvgPool2d(),
            QuantLinear(4, 3, spec=LayerQuantSpec(act_bits=8,
                                                  weight_bits=8)),
        )
        model.eval()
        fcn = export_sequential(model, name="fcn")
        inputs = _inputs(4, size=6) + _inputs(4, size=8)
        engine = InferenceEngine(fcn)
        with BatchedServer(fcn, workers=2, max_batch=8,
                           max_wait_ms=50.0) as server:
            report = server.run_requests(inputs)
        for x, out in zip(inputs, report.outputs):
            assert np.array_equal(out, engine.run(x[None]).output[0])

    def test_submit_future_api(self, graph):
        with BatchedServer(graph, workers=1) as server:
            future = server.submit(_inputs(1)[0])
            response = future.result(timeout=30)
        assert response.output.shape == (3,)
        assert response.latency_ms > 0
        assert not response.degraded
        assert response.breaker_state == "disabled"
        assert response.warnings == ()


class TestStats:
    def test_latency_and_throughput_populated(self, graph):
        with BatchedServer(graph, workers=2, max_batch=4) as server:
            report = server.run_requests(_inputs(16))
        s = report.stats
        assert s.requests == 16
        assert s.batches >= 1
        assert sum(k * v for k, v in s.batch_histogram.items()) == 16
        assert s.throughput_rps > 0
        assert 0 < s.latency_p50_ms <= s.latency_p95_ms \
            <= s.latency_p99_ms
        assert s.mean_batch_size >= 1.0
        assert s.max_queue_depth >= 0

    def test_max_batch_respected(self, graph):
        with BatchedServer(graph, workers=1, max_batch=3,
                           max_wait_ms=50.0) as server:
            report = server.run_requests(_inputs(9))
        assert max(report.stats.batch_histogram) <= 3

    def test_zero_wait_degenerates_gracefully(self, graph):
        with BatchedServer(graph, workers=1, max_batch=8,
                           max_wait_ms=0.0) as server:
            report = server.run_requests(_inputs(5))
        assert report.stats.requests == 5

    def test_stats_serialize(self, graph):
        with BatchedServer(graph, workers=1) as server:
            report = server.run_requests(_inputs(3))
        payload = report.stats.as_dict()
        assert payload["requests"] == 3
        assert isinstance(payload["batch_histogram"], dict)


class TestBatchingPolicy:
    """The batcher holds its window only while at most one runner is
    idle."""

    def test_lone_request_on_idle_pool_is_not_held(self, graph):
        with BatchedServer(graph, workers=2,
                           max_wait_ms=10_000.0) as server:
            response = server.submit(_inputs(1)[0]).result(timeout=5)
        assert response.latency_ms < 2_000

    def test_single_worker_holds_the_window(self, graph):
        with BatchedServer(graph, workers=1, max_batch=8,
                           max_wait_ms=200.0) as server:
            report = server.run_requests(_inputs(4))
        assert report.stats.batch_histogram == {4: 1}

    def test_burst_still_batches(self, graph):
        with BatchedServer(graph, workers=2, max_batch=8) as server:
            report = server.run_requests(_inputs(64))
        assert report.stats.mean_batch_size > 1


class TestLifecycle:
    def test_submit_after_close_rejected(self, graph):
        server = BatchedServer(graph, workers=1)
        server.close()
        with pytest.raises(ServingError):
            server.submit(_inputs(1)[0])

    def test_close_is_idempotent(self, graph):
        server = BatchedServer(graph, workers=1)
        server.close()
        server.close()

    def test_invalid_parameters(self, graph):
        with pytest.raises(ServingError):
            BatchedServer(graph, workers=0)
        with pytest.raises(ServingError):
            BatchedServer(graph, max_batch=0)
        with pytest.raises(ServingError):
            BatchedServer(graph, max_wait_ms=-1.0)

    def test_worker_error_propagates_to_future(self, graph):
        with BatchedServer(graph, workers=1) as server:
            future = server.submit(np.zeros((7, 9, 9)))  # bad channels
            with pytest.raises(Exception):
                future.result(timeout=30)


class TestScalingSweep:
    def test_rows_cover_worker_counts(self, graph):
        rows = scaling_sweep(graph, _inputs(8), worker_counts=(1, 2),
                             max_batch=4)
        assert [r["workers"] for r in rows] == [1, 2]
        for row in rows:
            assert row["requests"] == 8
            assert row["throughput_rps"] > 0


@pytest.mark.slow
class TestHeavySweep:
    """Big request volumes across worker counts (CI: slow marker)."""

    def test_many_requests_all_exact(self, graph):
        inputs = _inputs(128, seed=5)
        engine = InferenceEngine(graph, backend="mixgemm")
        with BatchedServer(graph, workers=4, max_batch=8,
                           backend="mixgemm") as server:
            report = server.run_requests(inputs)
        assert report.stats.requests == 128
        for x, out in zip(inputs, report.outputs):
            assert np.array_equal(out, engine.run(x[None]).output[0])

    def test_worker_scaling_sweep(self, graph):
        rows = scaling_sweep(graph, _inputs(64, seed=9),
                             worker_counts=(1, 2, 4), max_batch=8,
                             backend="mixgemm")
        assert [r["workers"] for r in rows] == [1, 2, 4]
        for row in rows:
            assert row["throughput_rps"] > 0
