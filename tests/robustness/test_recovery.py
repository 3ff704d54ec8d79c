"""Engine-level recovery: shadow verification, retry, fallback, warnings.

The concrete fault specs used here come from the seed-0 campaign and are
pinned so each test exercises a known scenario: the u-vector and weight
specs corrupt the unguarded output silently, the AccMem spec escapes the
cheap guards and needs the shadow.
"""

import warnings

import numpy as np
import pytest

from repro.core.binseg import BinSegError
from repro.core.errors import ReproError
from repro.core.microengine import MicroEngineError
from repro.robustness.errors import (
    FaultPlanError,
    GuardError,
    ReliabilityWarning,
)
from repro.robustness.faults import (
    FaultPlan,
    FaultSpec,
    demo_graph,
    demo_input,
)
from repro.robustness.recovery import (
    RecoveryPolicy,
    ShadowVerifier,
)
from repro.runtime.engine import InferenceEngine
from repro.runtime.graph import GraphError

#: Seed-0 campaign specs with known behaviour on the demo model.
UVECTOR_SPEC = FaultSpec(site="uvector_a", index=55746, bit=41743)
ACCMEM_SPEC = FaultSpec(site="accmem", index=33005, bit=39756)
WEIGHT_SPEC = FaultSpec(site="weight", index=4930, bit=1083)


@pytest.fixture(scope="module")
def graph():
    return demo_graph()


@pytest.fixture(scope="module")
def x():
    return demo_input()


@pytest.fixture(scope="module")
def reference(graph, x):
    return InferenceEngine(graph, backend="numpy").run(x).output


def run_with_fault(graph, x, spec, *, guard_level, recovery=None):
    engine = InferenceEngine(
        graph, backend="mixgemm", guard_level=guard_level,
        fault_plan=FaultPlan(faults=(spec,)), recovery=recovery,
    )
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ReliabilityWarning)
            return engine.run(x), engine
    finally:
        engine.injector.restore()


class TestErrorHierarchy:
    def test_every_runtime_error_shares_the_base(self):
        for exc_type in (BinSegError, MicroEngineError, GraphError,
                         GuardError, FaultPlanError):
            assert issubclass(exc_type, ReproError)

    def test_legacy_bases_are_preserved(self):
        assert issubclass(BinSegError, ValueError)
        assert issubclass(GraphError, ValueError)
        assert issubclass(MicroEngineError, RuntimeError)
        assert issubclass(GuardError, RuntimeError)

    def test_one_except_clause_catches_them_all(self):
        caught = []
        for exc_type in (BinSegError, MicroEngineError, GraphError,
                         GuardError):
            try:
                raise exc_type("boom")
            except ReproError as exc:
                caught.append(exc)
        assert len(caught) == 4


class TestRecoveryPolicy:
    def test_defaults(self):
        policy = RecoveryPolicy()
        assert policy.max_retries == 1
        assert policy.fallback and policy.warn

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_retries=-1)


class TestShadowVerifier:
    def test_reference_is_exact_integer_matmul(self):
        shadow = ShadowVerifier()
        x_q = np.array([[1, -2], [3, 4]])
        w_q = np.array([[5, 6], [7, -8]])
        assert np.array_equal(shadow.reference(x_q, w_q), x_q @ w_q)

    def test_match_counters(self):
        shadow = ShadowVerifier()
        ref = np.array([[1, 2]])
        assert shadow.matches(ref.copy(), ref)
        assert not shadow.matches(ref + 1, ref)
        assert shadow.checked == 2
        assert shadow.mismatched == 1


class TestEngineConstruction:
    def test_unknown_backend_rejected(self, graph):
        with pytest.raises(GraphError):
            InferenceEngine(graph, backend="tpu")

    def test_unknown_guard_level_rejected(self, graph):
        with pytest.raises(GuardError):
            InferenceEngine(graph, guard_level="maximum")


class TestGuardedInference:
    def test_clean_guarded_run_matches_reference(self, graph, x, reference):
        result = InferenceEngine(
            graph, backend="mixgemm", guard_level="full").run(x)
        assert np.array_equal(result.output, reference)
        assert result.fault_events == []
        assert result.recovered_layers == []
        assert result.guard_level == "full"

    def test_guards_off_lets_corruption_through(self, graph, x, reference):
        result, engine = run_with_fault(graph, x, UVECTOR_SPEC,
                                        guard_level="off")
        assert engine.injector.injected
        assert result.fault_events == []
        assert not np.array_equal(result.output, reference)

    def test_checksum_detects_and_retry_recovers(self, graph, x, reference):
        result, engine = run_with_fault(graph, x, UVECTOR_SPEC,
                                        guard_level="full")
        assert engine.injector.injected
        assert result.fault_events
        assert result.fault_events[0].detected_by == "checksum"
        assert result.fault_events[0].action == "retried"
        assert result.recovered_layers
        assert np.array_equal(result.output, reference)

    def test_shadow_catches_accmem_fault(self, graph, x, reference):
        result, _ = run_with_fault(graph, x, ACCMEM_SPEC, guard_level="full")
        assert result.fault_events
        assert {e.detected_by for e in result.fault_events} <= {
            "shadow", "range"}
        assert np.array_equal(result.output, reference)

    def test_vault_restores_corrupted_weights(self, x, reference):
        # Fresh graph: weight faults mutate tensors in place.
        result, _ = run_with_fault(demo_graph(), x, WEIGHT_SPEC,
                                   guard_level="standard")
        assert any(e.detected_by == "weight" and e.action == "restored"
                   for e in result.fault_events)
        assert np.array_equal(result.output, reference)

    def test_numpy_backend_never_sees_datapath_faults(self, graph, x,
                                                      reference):
        engine = InferenceEngine(
            graph, backend="numpy", guard_level="full",
            fault_plan=FaultPlan(faults=(UVECTOR_SPEC,)),
        )
        result = engine.run(x)
        assert not engine.injector.injected
        assert np.array_equal(result.output, reference)

    def test_reliability_report_structure(self, graph, x):
        result, _ = run_with_fault(graph, x, UVECTOR_SPEC,
                                   guard_level="full")
        report = result.reliability_report()
        assert report["guard_level"] == "full"
        assert report["detections"] == len(result.fault_events)
        assert sum(report["by_guard"].values()) == report["detections"]
        assert report["recovered_layers"] == result.recovered_layers


class TestEscalation:
    def test_exhausted_retries_fall_back_with_warning(self, graph, x,
                                                      reference):
        engine = InferenceEngine(
            graph, backend="mixgemm", guard_level="full",
            fault_plan=FaultPlan(faults=(UVECTOR_SPEC,)),
            recovery=RecoveryPolicy(max_retries=0),
        )
        with pytest.warns(ReliabilityWarning):
            result = engine.run(x)
        assert result.fault_events[0].action == "fallback"
        assert result.recovered_layers
        assert np.array_equal(result.output, reference)

    def test_fallback_can_be_silenced(self, graph, x, reference):
        engine = InferenceEngine(
            graph, backend="mixgemm", guard_level="full",
            fault_plan=FaultPlan(faults=(UVECTOR_SPEC,)),
            recovery=RecoveryPolicy(max_retries=0, warn=False),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", ReliabilityWarning)
            result = engine.run(x)
        assert np.array_equal(result.output, reference)

    def test_disabled_fallback_raises(self, graph, x):
        engine = InferenceEngine(
            graph, backend="mixgemm", guard_level="full",
            fault_plan=FaultPlan(faults=(UVECTOR_SPEC,)),
            recovery=RecoveryPolicy(max_retries=0, fallback=False,
                                    warn=False),
        )
        with pytest.raises(GuardError) as err:
            engine.run(x)
        assert err.value.guard == "recovery"
