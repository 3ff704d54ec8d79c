"""Replay of the per-op interpreter's recorded behaviour.

``data/interpreter_golden.json`` was recorded by the per-op interpreter
``InferenceEngine`` ran before it became a facade over ``GraphPlan``.
It pins, for the demo graph and the resnet18 a8w8 tiny graph (plain
and with saturated inputs, so 16-bit AccMems wrap) across backends,
guard levels and AccMem widths, the output bytes (sha256), per-layer
stats, fault events, recovered layers and injected faults; the same
for single- and multi-fault runs; and every ``TrialResult`` field of
one seeded fault campaign per guard level.  Every graph runs only
quantized matmuls, so the hashes do not depend on the host's BLAS.

Running this file as a script re-records the golden from the current
engine -- do that only when the recorded behaviour is meant to
change::

    PYTHONPATH=src python tests/runtime/test_interpreter_golden.py
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import ReproError
from repro.models.builders import build_tiny
from repro.nn.layers import seed_init
from repro.robustness.errors import ReliabilityWarning
from repro.robustness.faults import (
    FAULT_SITES,
    FaultCampaign,
    FaultPlan,
    FaultSpec,
    demo_graph,
    demo_input,
)
from repro.runtime.engine import InferenceEngine
from repro.runtime.export_modules import export_model

GOLDEN = Path(__file__).parent / "data" / "interpreter_golden.json"

GRAPHS = ("demo", "resnet18", "resnet18-sat")
BACKENDS = (("numpy", "auto"), ("mixgemm", "event"), ("mixgemm", "fast"))
GUARD_LEVELS = ("off", "light", "standard", "full")
ACCMEM_BITS = (64, 16)


def _graph_and_input(name: str):
    if name == "demo":
        return demo_graph(), demo_input()
    seed_init(13)
    model = build_tiny("resnet18", act_bits=8, weight_bits=8)
    model.eval()
    graph = export_model(model, name="resnet18")
    x = np.random.default_rng(7).standard_normal((2, 1, 12, 12))
    return graph, 8.0 * x if name.endswith("-sat") else x


def _slow_if(condition: bool):
    return pytest.mark.slow if condition else ()


#: Every guard-free-to-full case.  The resnet18 ones whose every GEMM
#: goes through the event engine (~1 s each) ride with the slow sweeps.
CASES = [
    pytest.param(name, backend, gemm_backend, guard, bits,
                 marks=_slow_if(name != "demo" and (
                     gemm_backend == "event"
                     or guard in ("standard", "full"))))
    for name in GRAPHS for backend, gemm_backend in BACKENDS
    for guard in GUARD_LEVELS for bits in ACCMEM_BITS
]

#: The campaign's single-fault plans, replayed one run each so the
#: fault events and recovered layers are pinned, not only the verdicts;
#: then four-fault plans whose weight restore and GEMM detections land
#: on different layers of one run.
SINGLE_FAULTS = [FaultPlan(faults=(spec,))
                 for spec in FaultCampaign(seed=0, n_trials=16).specs]
MULTI_FAULTS = [
    FaultPlan(faults=FaultPlan.generate(
        seed=s, n_faults=3, sites=FAULT_SITES[:3], layers=(0, 1, 2),
    ).faults + (FaultSpec("weight", index=s, bit=5 * s),))
    for s in range(8)
]
FAULTED = {
    "demo/auto": SINGLE_FAULTS + MULTI_FAULTS,
    "demo/fast": SINGLE_FAULTS + MULTI_FAULTS,
    "resnet18/auto": MULTI_FAULTS,
}
#: The resnet18 fault runs are event-simulated end to end (~1.3 s each).
FAULTED_CASES = [
    pytest.param(key, i, marks=_slow_if(key.startswith("resnet18")))
    for key, plans in FAULTED.items() for i in range(len(plans))
]


def _case_key(graph: str, backend: str, gemm_backend: str, guard: str,
              accmem_bits: int) -> str:
    return f"{graph}/{backend}/{gemm_backend}/{guard}/acc{accmem_bits}"


def _injected(engine) -> list:
    if engine.injector is None:
        return []
    return [[f.layer, f.description] for f in engine.injector.injected]


def run_case(graph, x, backend: str, gemm_backend: str, guard: str,
             accmem_bits: int, fault_plan: FaultPlan | None = None) -> dict:
    engine = InferenceEngine(graph, backend=backend,
                             gemm_backend=gemm_backend, guard_level=guard,
                             accmem_bits=accmem_bits, fault_plan=fault_plan)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ReliabilityWarning)
            result = engine.run(x)
    except ReproError as exc:
        return {"error": f"{type(exc).__name__}: {exc}",
                "injected": _injected(engine)}
    finally:
        if engine.injector is not None:
            engine.injector.restore()
    out = np.ascontiguousarray(result.output, dtype=np.float64)
    return {
        "output_sha256": hashlib.sha256(out.tobytes()).hexdigest(),
        "output_shape": list(out.shape),
        "layer_stats": [[s.layer, s.op, s.config, s.macs, s.cycles]
                        for s in result.layer_stats],
        "fault_events": [[e.layer, e.op, e.detected_by, e.action,
                          e.message] for e in result.fault_events],
        "recovered_layers": list(result.recovered_layers),
        "guard_level": result.guard_level,
        "injected": _injected(engine),
    }


def run_faulted(graphs: dict, key: str, guard: str, i: int) -> dict:
    name, gemm_backend = key.split("/")
    graph, x = graphs[name]
    return run_case(graph, x, "mixgemm", gemm_backend, guard, 64,
                    fault_plan=FAULTED[key][i])


def run_campaign(guard: str) -> list[dict]:
    report = FaultCampaign(seed=0, n_trials=16).run(guard_level=guard)
    return [{
        "spec": [t.spec.site, t.spec.index, t.spec.bit, t.spec.layer],
        "injected": t.injected,
        "detected": t.detected,
        "corrupted": t.corrupted,
        "failed": t.failed,
        "error": t.error,
    } for t in report.trials]


def capture() -> dict:
    graphs = {name: _graph_and_input(name) for name in GRAPHS}
    cases = {}
    for case in CASES:
        name, backend, gemm_backend, guard, bits = case.values
        cases[_case_key(name, backend, gemm_backend, guard, bits)] = \
            run_case(*graphs[name], backend, gemm_backend, guard, bits)
    faulted = {}
    for case in FAULTED_CASES:
        key, i = case.values
        for guard in GUARD_LEVELS:
            faulted[f"{key}/{guard}/plan{i}"] = run_faulted(graphs, key,
                                                            guard, i)
    campaigns = {guard: run_campaign(guard) for guard in GUARD_LEVELS}
    return {"cases": cases, "faulted": faulted, "campaigns": campaigns}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def graphs() -> dict:
    return {name: _graph_and_input(name) for name in GRAPHS}


@pytest.mark.parametrize("name,backend,gemm_backend,guard,accmem_bits",
                         CASES)
def test_engine_replays_interpreter(golden, graphs, name, backend,
                                    gemm_backend, guard, accmem_bits):
    graph, x = graphs[name]
    key = _case_key(name, backend, gemm_backend, guard, accmem_bits)
    assert run_case(graph, x, backend, gemm_backend, guard,
                    accmem_bits) == golden["cases"][key]


@pytest.mark.parametrize("guard", GUARD_LEVELS)
@pytest.mark.parametrize("key,i", FAULTED_CASES)
def test_faulted_run_replays_interpreter(golden, graphs, key, i, guard):
    assert run_faulted(graphs, key, guard, i) == \
        golden["faulted"][f"{key}/{guard}/plan{i}"]


@pytest.mark.parametrize("guard", GUARD_LEVELS)
def test_fault_campaign_replays_interpreter(golden, guard):
    assert run_campaign(guard) == golden["campaigns"][guard]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
