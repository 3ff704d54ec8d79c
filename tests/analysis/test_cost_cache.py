"""Calibration-cache robustness: damage degrades to recalibration.

Satellite guarantee: corrupt, version-skewed, or digest-mismatched
cache entries are ignored with a structured ``ReliabilityWarning`` and
trigger recalibration -- never a crash, never a silently wrong
calibration.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.analysis.cost import (
    COST_CACHE_ENV,
    COST_SCHEMA_VERSION,
    CostCache,
    calibrate_tile,
    get_tile_calibration,
)
from repro.analysis.cost.calibrate import clear_calibration_memo
from repro.core.config import BlockingParams, MixGemmConfig
from repro.robustness.errors import ReliabilityWarning

CONFIG = MixGemmConfig(bw_a=4, bw_b=4,
                       blocking=BlockingParams(mc=16, nc=16, kc=64))


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv(COST_CACHE_ENV, str(tmp_path / "unused"))
    clear_calibration_memo()
    yield
    clear_calibration_memo()


def _entry_file(cache: CostCache):
    files = list(cache.path.glob("*.json"))
    assert len(files) == 1
    return files[0]


def _warm(tmp_path) -> tuple[CostCache, "os.PathLike"]:
    cache = CostCache(tmp_path / "cost")
    calibration = calibrate_tile(CONFIG)
    cache.put(calibration)
    return cache, _entry_file(cache)


class TestRoundTrip:
    def test_put_then_get_round_trips(self, tmp_path):
        cache, _ = _warm(tmp_path)
        entry = cache.get(CONFIG)
        assert entry is not None
        assert entry.exact
        assert cache.hits == 1

    def test_publish_is_atomic_no_tmp_left_behind(self, tmp_path):
        cache, final = _warm(tmp_path)
        assert final.suffix == ".json"
        assert not list(cache.path.glob("*.tmp"))

    def test_clear_removes_entries(self, tmp_path):
        cache, _ = _warm(tmp_path)
        assert cache.clear() == 1
        assert cache.get(CONFIG) is None


class TestDamage:
    def test_corrupt_json_warns_and_reads_as_miss(self, tmp_path):
        cache, final = _warm(tmp_path)
        final.write_text("{not json at all")
        with pytest.warns(ReliabilityWarning, match="ignoring"):
            assert cache.get(CONFIG) is None

    def test_truncated_payload_warns_and_reads_as_miss(self, tmp_path):
        cache, final = _warm(tmp_path)
        payload = json.loads(final.read_text())
        del payload["slope"]
        final.write_text(json.dumps(payload))
        with pytest.warns(ReliabilityWarning):
            assert cache.get(CONFIG) is None

    def test_version_skew_warns_and_reads_as_miss(self, tmp_path):
        cache, final = _warm(tmp_path)
        payload = json.loads(final.read_text())
        payload["schema"] = COST_SCHEMA_VERSION + 1
        final.write_text(json.dumps(payload))
        with pytest.warns(ReliabilityWarning):
            assert cache.get(CONFIG) is None

    def test_digest_mismatch_warns_and_reads_as_miss(self, tmp_path):
        cache, final = _warm(tmp_path)
        payload = json.loads(final.read_text())
        payload["cost_digest"] = "0" * len(payload["cost_digest"])
        final.write_text(json.dumps(payload))
        with pytest.warns(ReliabilityWarning, match="digest"):
            assert cache.get(CONFIG) is None

    def test_signature_mismatch_warns_and_reads_as_miss(self, tmp_path):
        """An entry whose body describes a different tile is rejected
        even if it landed under this tile's file name."""
        cache, final = _warm(tmp_path)
        other = calibrate_tile(
            dataclasses.replace(CONFIG, bw_a=8, bw_b=8))
        final.write_text(json.dumps(other.as_dict()))
        with pytest.warns(ReliabilityWarning):
            assert cache.get(CONFIG) is None

    def test_damage_triggers_recalibration(self, tmp_path):
        cache, final = _warm(tmp_path)
        final.write_text("{corrupt")
        with pytest.warns(ReliabilityWarning):
            calibration = get_tile_calibration(CONFIG, cache=cache)
        assert calibration.exact
        # The recalibrated entry was re-published and now reads clean.
        fresh = CostCache(cache.path)
        assert fresh.get(CONFIG) is not None

    def test_unreadable_entry_warns_and_reads_as_miss(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root reads through permission bits")
        cache, final = _warm(tmp_path)
        final.chmod(0)
        try:
            with pytest.warns(ReliabilityWarning):
                assert cache.get(CONFIG) is None
        finally:
            final.chmod(0o644)


class TestMemo:
    def test_memo_serves_without_touching_disk(self, tmp_path):
        cache = CostCache(tmp_path / "cost")
        get_tile_calibration(CONFIG, cache=cache)
        for path in cache.path.glob("*.json"):
            path.unlink()
        # Memo hit: no disk read, no recalibration.
        assert get_tile_calibration(CONFIG, cache=cache).exact

    def test_clear_memo_forces_disk_path(self, tmp_path):
        cache = CostCache(tmp_path / "cost")
        get_tile_calibration(CONFIG, cache=cache)
        clear_calibration_memo()
        before = cache.misses
        get_tile_calibration(CONFIG, cache=cache)
        assert cache.hits >= 1
        assert cache.misses == before


def _demo_plan_run():
    """Compile and run the demo graph from cold calibration state."""
    from repro.core import fastpath
    from repro.robustness.faults import demo_graph, demo_input
    from repro.runtime.plan import compile_graph

    clear_calibration_memo()
    for fn in (fastpath._tile_timing, fastpath._tile_timing_engine,
               fastpath.fastpath_timing):
        fn.cache_clear()
    return compile_graph(demo_graph(), backend="mixgemm").run(
        demo_input(batch=2))


class TestUnwritableCache:
    def test_inference_survives_unwritable_cache(self, tmp_path,
                                                 monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory\n")
        monkeypatch.setenv(COST_CACHE_ENV, str(blocker / "cost"))
        with pytest.warns(ReliabilityWarning) as record:
            broken = _demo_plan_run()
        unwritable = [w for w in record if "not writable" in str(w.message)]
        assert len(unwritable) == 1

        monkeypatch.setenv(COST_CACHE_ENV, str(tmp_path / "cost"))
        good = _demo_plan_run()
        assert list((tmp_path / "cost").glob("*.json"))
        np.testing.assert_array_equal(broken.output, good.output)
        assert broken.total_cycles == good.total_cycles
