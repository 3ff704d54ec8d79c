"""Tests of the benchmark itself: short runs of every workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import hostspeed, run, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def isolated(tmp_path, monkeypatch):
    """The environment ``run.main`` sets up, undone after the test."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setenv("REPRO_COST_CACHE", str(tmp_path / "cost"))
    monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "tune"))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    return tmp_path


def short_run(name, trace, tmp):
    return run.run_benchmark(name, seed=3, seconds=0.4, trace=trace,
                             tmp=tmp, setup_reps=1)


def test_spec_matches_the_runner():
    assert set(NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_reported_and_nothing_fails(name, trace, isolated):
    result = short_run(name, trace, isolated)
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {key: m["unit"] for key, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec}
    if trace:
        trace_file = isolated / "out" / f"trace-{name}-seed3.json"
        events = json.loads(trace_file.read_text())["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
    else:
        metrics = result["metrics"]
        assert metrics["ok_share"]["value"] == 1.0
        assert all(m["value"] > 0 for m in metrics.values())


def test_corrupted_expected_output_is_a_failure(isolated, monkeypatch):
    honest = workloads.BatchWorkload.reference

    def corrupted(self, item):
        ref = honest(self, item).copy()
        if item == 0:
            ref[0, 0] += 1.0
        return ref

    monkeypatch.setattr(workloads.BatchWorkload, "reference", corrupted)
    result = short_run("batch-r18-b32", False, isolated)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_share"]["value"] < 1.0


def test_changed_cycle_count_is_a_failure(isolated, monkeypatch):
    expected = json.loads(run.EXPECTED_CYCLES.read_text())
    expected["sim-fig6"] += 1
    path = isolated / "expected_cycles.json"
    path.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED_CYCLES", path)
    result = short_run("sim-fig6", False, isolated)
    assert not result["correct"] and result["failed"] == 1
    assert any("sim_cycles" in e for e in result["errors"])


def test_steal_free_quantile_reads_the_fit_at_zero_steal():
    # Slice j: steal j/10 CPU s per s, latencies 3 ms + 1 ms per 0.1 s
    # of steal, spread evenly over 0.1 ms.
    slices = [(j / 10, [3e-3 + j * 1e-3 + i * 1e-6 for i in range(100)])
              for j in range(8)]
    got = hostspeed.steal_free_quantile(slices, 0.5)
    assert got == pytest.approx(3e-3 + 49.5e-6)
    # Too few slices: the pooled quantile, not an extrapolation.
    few = slices[:hostspeed.MIN_SLICES - 1]
    pooled = sorted(lat for _, lats in few for lat in lats)
    assert hostspeed.steal_free_quantile(few, 0.5) == pytest.approx(
        (pooled[199] + pooled[200]) / 2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
