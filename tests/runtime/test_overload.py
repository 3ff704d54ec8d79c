"""Overload resilience: admission control, deadlines, shedding, breaker.

The integration classes drive a real :class:`BatchedServer`; the unit
classes pin down :class:`AdmissionQueue` and :class:`CircuitBreaker`
with fake clocks and direct queue manipulation.  The shutdown-under-load
class runs under the ``lock_sanitizer`` fixture and cross-checks the
dynamic trace against the static lockset analysis.
"""

import threading
import time

import numpy as np
import pytest

from repro.robustness.errors import OverloadError
from repro.robustness.faults import FaultPlan, demo_graph, demo_input
from repro.robustness.recovery import BreakerPolicy
from repro.runtime.overload import (
    ADMISSION_POLICIES,
    AdmissionQueue,
    CircuitBreaker,
)
from repro.runtime.serving import BatchedServer, ServingError


@pytest.fixture(scope="module")
def graph():
    return demo_graph()


def _inputs(n, size=6, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((1, size, size)) for _ in range(n)]


# -- AdmissionQueue unit tests ------------------------------------------------


class TestAdmissionQueue:
    def test_reject_policy_raises_when_full(self):
        q = AdmissionQueue(2, policy="reject")
        q.put("a")
        q.put("b")
        with pytest.raises(OverloadError) as ei:
            q.put("c")
        assert ei.value.reason == "queue-full"
        assert ei.value.queue_depth == 2

    def test_block_policy_times_out(self):
        q = AdmissionQueue(1, policy="block", timeout_s=0.02)
        q.put("a")
        t0 = time.perf_counter()
        with pytest.raises(OverloadError) as ei:
            q.put("b")
        assert ei.value.reason == "admission-timeout"
        assert time.perf_counter() - t0 >= 0.02

    def test_block_policy_admits_when_slot_frees(self):
        q = AdmissionQueue(1, policy="block", timeout_s=5.0)
        q.put("a")
        threading.Timer(0.01, q.get).start()
        q.put("b")  # must not raise: the timer freed a slot
        assert q.get() == "b"

    def test_shed_oldest_evicts_head(self):
        shed = []
        q = AdmissionQueue(2, policy="shed-oldest", on_shed=shed.append)
        q.put("a")
        q.put("b")
        q.put("c")
        assert shed == ["a"]
        assert [q.get(), q.get()] == ["b", "c"]

    def test_shed_oldest_never_evicts_the_sentinel(self):
        stop = object()
        q = AdmissionQueue(1, policy="shed-oldest", sentinel=stop)
        q.put_sentinel(stop)
        with pytest.raises(OverloadError) as ei:
            q.put("late")
        assert ei.value.reason == "closed"
        assert q.get() is stop  # the sentinel survived the eviction

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)
        with pytest.raises(ValueError):
            AdmissionQueue(1, policy="drop-newest")
        with pytest.raises(ValueError):
            AdmissionQueue(1, timeout_s=-1.0)

    def test_policy_roster(self):
        assert ADMISSION_POLICIES == ("block", "reject", "shed-oldest")


# -- CircuitBreaker unit tests ------------------------------------------------


class TestCircuitBreaker:
    def _breaker(self, **kw):
        clock = {"t": 0.0}
        policy = BreakerPolicy(**{"failure_threshold": 2,
                                  "cooldown_s": 1.0, "backoff": 2.0,
                                  "max_cooldown_s": 3.0, **kw})
        return CircuitBreaker(policy, clock=lambda: clock["t"]), clock

    def test_starts_closed_and_routes_primary(self):
        br, _ = self._breaker()
        assert br.state() == "closed"
        assert br.route() == "primary"

    def test_trips_after_consecutive_failures(self):
        br, _ = self._breaker()
        br.record(True)
        assert br.state() == "closed"
        br.record(True)
        assert br.state() == "open"
        assert br.route() == "reference"
        assert br.trips == 1

    def test_success_resets_the_failure_streak(self):
        br, _ = self._breaker()
        br.record(True)
        br.record(False)
        br.record(True)
        assert br.state() == "closed"

    def test_half_open_allows_exactly_one_probe(self):
        br, clock = self._breaker()
        br.record(True)
        br.record(True)
        clock["t"] = 1.0
        assert br.route() == "probe"
        assert br.route() == "reference"  # probe slot already taken

    def test_clean_probe_closes_and_resets_cooldown(self):
        br, clock = self._breaker()
        br.record(True)
        br.record(True)
        clock["t"] = 1.0
        assert br.route() == "probe"
        br.record(False, probe=True)
        assert br.state() == "closed"
        assert br.route() == "primary"
        assert br.snapshot()["cooldown_s"] == 1.0

    def test_faulty_probe_reopens_with_backoff(self):
        br, clock = self._breaker()
        br.record(True)
        br.record(True)            # trip 1: cooldown 1.0
        clock["t"] = 1.0
        assert br.route() == "probe"
        br.record(True, probe=True)   # trip 2: cooldown 2.0
        assert br.state() == "open"
        assert br.trips == 2
        assert br.snapshot()["cooldown_s"] == 2.0
        clock["t"] = 2.5
        assert br.route() == "reference"   # still cooling down
        clock["t"] = 3.0
        assert br.route() == "probe"
        br.record(True, probe=True)   # trip 3: cooldown capped at 3.0
        assert br.snapshot()["cooldown_s"] == 3.0

    def test_cancel_probe_releases_the_slot(self):
        br, clock = self._breaker()
        br.record(True)
        br.record(True)
        clock["t"] = 1.0
        assert br.route() == "probe"
        br.cancel_probe()
        assert br.route() == "probe"  # slot available again

    def test_state_advances_open_to_half_open(self):
        br, clock = self._breaker()
        br.record(True)
        br.record(True)
        assert br.state() == "open"
        clock["t"] = 1.0
        assert br.state() == "half-open"

    def test_breaker_policy_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerPolicy(cooldown_s=0.0)
        with pytest.raises(ValueError):
            BreakerPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            BreakerPolicy(cooldown_s=2.0, max_cooldown_s=1.0)


# -- server-level admission policies ------------------------------------------


class TestServerAdmission:
    def test_reject_policy_raises_structured_error(self, graph):
        # max_wait holds the first batch open so the queue backs up.
        with BatchedServer(graph, workers=1, max_batch=1,
                           max_wait_ms=0.0, queue_capacity=2,
                           admission="reject") as server:
            futures, errors = [], []
            for x in _inputs(40):
                try:
                    futures.append(server.submit(x))
                except OverloadError as exc:
                    errors.append(exc)
            for f in futures:
                f.result(timeout=30)
            assert errors, "40 bursts into a capacity-2 queue must reject"
            assert all(e.reason == "queue-full" for e in errors)

    def test_block_policy_times_out_under_pressure(self, graph):
        release = threading.Event()
        server = BatchedServer(graph, workers=1, max_batch=1,
                               max_wait_ms=0.0, queue_capacity=1,
                               admission="block",
                               admission_timeout_ms=20.0)
        server._batch_hook = lambda route, live: release.wait(10)
        try:
            futures = [server.submit(x) for x in _inputs(2)]
            # Worker is stalled, batcher holds a second batch waiting
            # for a runner, the queue slot is occupied: the next
            # submit must time out at admission.
            with pytest.raises(OverloadError) as ei:
                while True:
                    futures.append(server.submit(_inputs(1)[0]))
            assert ei.value.reason == "admission-timeout"
        finally:
            release.set()
            server.close()
        for f in futures:
            f.result(timeout=30)

    def test_shed_oldest_resolves_evicted_futures(self, graph):
        release = threading.Event()
        claimed = threading.Event()
        server = BatchedServer(graph, workers=1, max_batch=1,
                               max_wait_ms=0.0, queue_capacity=1,
                               admission="shed-oldest")

        def hook(route, live):
            claimed.set()
            release.wait(10)

        server._batch_hook = hook
        try:
            first = server.submit(_inputs(1)[0])   # stalls the worker
            assert claimed.wait(10)  # `first` is out of eviction reach
            victims = [server.submit(x) for x in _inputs(3, seed=1)]
        finally:
            release.set()
            server.close()
        first.result(timeout=30)
        shed = 0
        for f in victims:
            try:
                f.result(timeout=30)
            except OverloadError as exc:
                assert exc.reason == "shed"
                shed += 1
        assert shed >= 1


# -- per-request deadlines ----------------------------------------------------


class TestDeadlines:
    def test_expired_requests_are_shed_not_executed(self, graph):
        release = threading.Event()
        server = BatchedServer(graph, workers=1, max_batch=1,
                               max_wait_ms=0.0)
        hook_calls = []

        def hook(route, live):
            hook_calls.append(len(live))
            release.wait(10)

        server._batch_hook = hook
        try:
            blocker = server.submit(_inputs(1)[0])
            doomed = [server.submit(x, deadline_ms=20.0)
                      for x in _inputs(3, seed=2)]
            time.sleep(0.05)  # let every deadline lapse
        finally:
            release.set()
            server.close()
        blocker.result(timeout=30)
        for f in doomed:
            with pytest.raises(OverloadError) as ei:
                f.result(timeout=30)
            assert ei.value.reason == "deadline"
            assert ei.value.deadline_ms == 20.0
        # The stalled blocker batch is the only one that reached a
        # worker with live members: expired requests never spent a
        # GEMM slot.
        assert hook_calls.count(1) == 1

    def test_generous_deadline_is_met(self, graph):
        with BatchedServer(graph, workers=2, max_batch=4) as server:
            report = server.run_requests(_inputs(8),
                                         deadline_ms=30_000.0)
        assert report.stats.served == 8
        assert report.stats.shed_deadline == 0

    def test_invalid_deadline_rejected(self, graph):
        with BatchedServer(graph, workers=1) as server:
            with pytest.raises(ServingError):
                server.submit(_inputs(1)[0], deadline_ms=0.0)
            with pytest.raises(ServingError):
                server.submit(_inputs(1)[0], deadline_ms=-5.0)


# -- client-side cancellation -------------------------------------------------


class TestCancellation:
    def test_cancelled_queued_future_is_never_executed(self, graph):
        """A future cancelled while queued behind a stalled batch is
        counted ``cancelled`` and the worker skips it without
        executing."""
        entered = threading.Event()
        release = threading.Event()
        server = BatchedServer(graph, workers=1, max_batch=1,
                               max_wait_ms=0.0)
        hook_batches = []

        def hook(route, live):
            hook_batches.append(len(live))
            entered.set()
            release.wait(10)

        server._batch_hook = hook
        try:
            blocker = server.submit(_inputs(1)[0])
            assert entered.wait(10)  # blocker holds the only worker
            victim = server.submit(_inputs(1, seed=4)[0])
            assert victim.cancel()
        finally:
            release.set()
            server.close()
        assert blocker.result(timeout=30).output.shape == (3,)
        assert victim.cancelled()
        snap = server.overload_snapshot()
        assert snap["counters"].get("cancelled", 0) >= 1
        # Only the blocker's batch ever reached a worker with live
        # members: the cancelled request never spent a GEMM slot.
        assert hook_batches == [1]


# -- the 10x-capacity integration test ----------------------------------------


class TestOverloadIntegration:
    def test_ten_x_capacity_degrades_gracefully(self, graph):
        """Acceptance: at ~10x capacity with `reject`, every request
        resolves, admitted p99 stays within 2x the deadline, queue
        depth respects the bound, and no future is left unresolved."""
        capacity = 8
        deadline_ms = 500.0
        with BatchedServer(graph, workers=2, max_batch=4,
                           max_wait_ms=1.0, queue_capacity=capacity,
                           admission="reject") as server:
            report = server.run_requests(
                _inputs(160, seed=3), deadline_ms=deadline_ms,
                tolerate_overload=True)
        s = report.stats
        # Every request resolved to exactly one of response | error.
        assert len(report.responses) == len(report.errors) == 160
        for response, error in zip(report.responses, report.errors):
            assert (response is None) != (error is None)
            if error is not None:
                assert isinstance(error, OverloadError)
        assert s.served >= 1
        assert s.shed_total > 0, "10x capacity must shed"
        assert s.max_queue_depth <= capacity
        assert s.latency_p99_ms <= 2 * deadline_ms
        assert s.served + s.shed_total == 160


# -- circuit breaker through the server ---------------------------------------


class TestServingBreaker:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_faults_trip_degrade_and_reclose(self, graph):
        """Acceptance: faultsim-injected faults trip the breaker,
        responses carry degraded metadata, and clean half-open probes
        re-close the circuit."""
        x = demo_input()[0]
        plan = FaultPlan.generate(seed=1, n_faults=6,
                                  sites=("accmem", "uvector_a"))
        with BatchedServer(graph, workers=1, max_batch=1,
                           guard_level="full", fault_plan=plan,
                           backend="mixgemm",
                           breaker=BreakerPolicy(failure_threshold=1,
                                                 cooldown_s=0.05),
                           ) as server:
            faulty = server.submit(x).result(timeout=30)
            # The faulty batch recovered via fallback and carried its
            # reliability metadata on the response.
            assert faulty.fault_detections > 0
            assert faulty.recovered_layers
            assert any("fell back" in w for w in faulty.warnings)
            assert faulty.breaker_state == "open"

            degraded = server.submit(x).result(timeout=30)
            assert degraded.degraded
            assert degraded.breaker_state == "open"
            assert any("circuit breaker open" in w
                       for w in degraded.warnings)

            time.sleep(0.08)  # past the cooldown: next batch probes
            probed = server.submit(x).result(timeout=30)
            assert not probed.degraded
            assert probed.breaker_state == "closed"

            snap = server.overload_snapshot()
            assert snap["breaker"]["state"] == "closed"
            assert snap["breaker"]["trips"] == 1
            assert snap["counters"]["degraded_responses"] == 1

    def test_breaker_disabled_by_default(self, graph):
        with BatchedServer(graph, workers=1) as server:
            response = server.submit(_inputs(1)[0]).result(timeout=30)
            assert response.breaker_state == "disabled"
            assert server.overload_snapshot()["breaker"] is None


# -- shutdown under load (lock_sanitizer) -------------------------------------


class TestShutdownUnderLoad:
    def _crosscheck_clean(self, active):
        from repro.analysis.concurrency import (
            analyze_concurrency,
            annotated_targets,
            crosscheck,
        )
        result = crosscheck(active.trace,
                            analyze_concurrency(annotated_targets()))
        assert result.ok, result.render()

    def test_submit_after_close_raises(self, graph, lock_sanitizer):
        server = BatchedServer(graph, workers=1)
        server.close()
        with pytest.raises(ServingError):
            server.submit(_inputs(1)[0])
        self._crosscheck_clean(lock_sanitizer)

    def test_close_with_queued_requests_drains(self, graph,
                                               lock_sanitizer):
        """close() under load is a graceful drain: everything admitted
        before the sentinel still resolves (result, not exception)."""
        release = threading.Event()
        server = BatchedServer(graph, workers=1, max_batch=2,
                               max_wait_ms=0.0)
        server._batch_hook = lambda route, live: release.wait(10)
        futures = [server.submit(x) for x in _inputs(6, seed=4)]
        closer = threading.Thread(target=server.close)
        closer.start()
        release.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        for f in futures:
            assert f.result(timeout=30).output.shape == (3,)
        self._crosscheck_clean(lock_sanitizer)

    def test_deadline_expiry_during_drain(self, graph, lock_sanitizer):
        """Requests whose deadline lapses while close() drains are shed
        with reason 'deadline', not served late and not lost."""
        release = threading.Event()
        server = BatchedServer(graph, workers=1, max_batch=1,
                               max_wait_ms=0.0)
        server._batch_hook = lambda route, live: release.wait(10)
        blocker = server.submit(_inputs(1)[0])
        doomed = [server.submit(x, deadline_ms=25.0)
                  for x in _inputs(3, seed=5)]
        closer = threading.Thread(target=server.close)
        closer.start()
        time.sleep(0.06)  # deadlines lapse while the drain is blocked
        release.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert blocker.result(timeout=30).output.shape == (3,)
        for f in doomed:
            with pytest.raises(OverloadError) as ei:
                f.result(timeout=30)
            assert ei.value.reason == "deadline"
        self._crosscheck_clean(lock_sanitizer)

    def test_submit_racing_close_resolves_future(self, graph,
                                                 lock_sanitizer):
        """A submit that lands behind the shutdown sentinel must still
        resolve (reason 'closed') -- zero lost futures."""
        server = BatchedServer(graph, workers=1)
        original_put = server._admission.put
        in_put = threading.Event()
        close_done = threading.Event()

        def racing_put(item):
            in_put.set()
            assert close_done.wait(10)
            original_put(item)

        server._admission.put = racing_put
        holder = {}

        def do_submit():
            holder["future"] = server.submit(_inputs(1)[0])

        submitter = threading.Thread(target=do_submit)
        submitter.start()
        assert in_put.wait(10)
        server.close()
        close_done.set()
        submitter.join(timeout=30)
        assert not submitter.is_alive()
        with pytest.raises(OverloadError) as ei:
            holder["future"].result(timeout=30)
        assert ei.value.reason == "closed"
        self._crosscheck_clean(lock_sanitizer)


# -- observability ------------------------------------------------------------


class TestObservability:
    def test_stats_carry_overload_counters(self, graph):
        with BatchedServer(graph, workers=1, max_batch=1,
                           max_wait_ms=0.0, queue_capacity=2,
                           admission="reject") as server:
            report = server.run_requests(_inputs(30, seed=6),
                                         tolerate_overload=True)
        payload = report.stats.as_dict()
        for key in ("served", "shed_deadline", "shed_capacity",
                    "shed_closed", "rejected", "admit_timeouts",
                    "cancelled", "shed_total", "shed_rate",
                    "degraded_responses", "breaker_state",
                    "breaker_trips", "queue_capacity", "admission"):
            assert key in payload
        assert payload["admission"] == "reject"
        assert payload["queue_capacity"] == 2
        assert payload["rejected"] > 0
        assert payload["shed_rate"] > 0
        assert payload["served"] + payload["shed_total"] == 30

    def test_overload_snapshot_shape(self, graph):
        with BatchedServer(graph, workers=1, queue_capacity=5) as server:
            snap = server.overload_snapshot()
        assert snap["queue_capacity"] == 5
        assert snap["admission"] == "block"
        assert snap["queue_depth"] >= 0
        assert isinstance(snap["counters"], dict)
