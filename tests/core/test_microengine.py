"""Unit tests for the u-engine: DSU schedule, timing, PMU, AccMem."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core.binseg import value_range
from repro.core.config import (
    BlockingParams,
    MixGemmConfig,
    all_size_combinations,
)
from repro.core.gemm import MixGemm, reference_gemm
from repro.core.isa import BsGet, BsIp, BsSet, InstructionStream
from repro.core.microengine import (
    MicroEngine,
    MicroEngineError,
    distribute_elements,
    dsu_walk,
    effective_macs_per_cycle,
    group_cycles,
    group_schedule,
)
from repro.core.packing import pack_matrix_a, pack_matrix_b, pack_word


class TestDistributeElements:
    def test_dense_fill(self):
        assert distribute_elements(30, 4, 8) == [8, 8, 8, 6]
        assert distribute_elements(30, 3, 10) == [10, 10, 10]
        assert distribute_elements(30, 2, 16) == [16, 14]

    def test_overflow_rejected(self):
        with pytest.raises(MicroEngineError):
            distribute_elements(33, 4, 8)

    def test_zero_tail(self):
        assert distribute_elements(8, 4, 8) == [8, 0, 0, 0]


class TestDsuWalk:
    @pytest.mark.parametrize(
        "bw_a, bw_b, expected_cycles",
        [
            (8, 8, 12),  # paper Section III-B: 12 accumulations
            (8, 6, 12),  # paper: 12 accumulations
            (6, 4, 9),   # paper: 9 accumulations
        ],
    )
    def test_paper_group_cycles(self, bw_a, bw_b, expected_cycles):
        cfg = MixGemmConfig(bw_a=bw_a, bw_b=bw_b)
        assert group_cycles(cfg) == expected_cycles

    def test_chunks_sum_to_elements(self):
        for bw_a, bw_b in all_size_combinations():
            cfg = MixGemmConfig(bw_a=bw_a, bw_b=bw_b)
            sched = group_schedule(cfg)
            assert sum(sched.chunks) == cfg.layout.group_elements

    def test_chunks_bounded_by_cluster_size(self):
        for bw_a, bw_b in all_size_combinations():
            cfg = MixGemmConfig(bw_a=bw_a, bw_b=bw_b)
            ics = cfg.binseg.input_cluster_size
            sched = group_schedule(cfg)
            assert all(1 <= c <= ics for c in sched.chunks)

    def test_a2w2_five_cycles_per_uvector(self):
        # Paper Section IV-B: 32 elements at 7 MAC/cycle need 5 cycles per
        # u-vector, the source of the 15% penalty at a2-w2.
        sched = dsu_walk(32, 32, 1, 1, 7, 32)
        assert sched.cycles == 5

    def test_release_times_monotone(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=6)
        sched = group_schedule(cfg)
        assert list(sched.a_release) == sorted(sched.a_release)
        assert list(sched.b_release) == sorted(sched.b_release)
        assert sched.a_release[-1] <= sched.cycles
        assert sched.b_release[-1] <= sched.cycles

    def test_needed_times_before_release(self):
        for bw_a, bw_b in [(8, 8), (8, 6), (6, 4), (2, 2)]:
            cfg = MixGemmConfig(bw_a=bw_a, bw_b=bw_b)
            sched = group_schedule(cfg)
            for need, rel in zip(sched.a_needed, sched.a_release):
                assert need < rel or rel == sched.cycles

    def test_partial_group(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=8)
        sched = group_schedule(cfg, n_elements=5)
        assert sum(sched.chunks) == 5
        assert sched.cycles == 2  # ceil(5 / 3)

    def test_effective_throughput_below_peak(self):
        for bw_a, bw_b in all_size_combinations():
            cfg = MixGemmConfig(bw_a=bw_a, bw_b=bw_b)
            eff = effective_macs_per_cycle(cfg)
            assert 0 < eff <= cfg.macs_per_cycle

    def test_a8w8_effective_throughput(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=8)
        assert effective_macs_per_cycle(cfg) == pytest.approx(32 / 12)


def _make_group_words(cfg, a_elems, b_elems):
    """Pack logical element lists into the kua/kub words of one group."""
    lay = cfg.layout
    a_counts = distribute_elements(len(a_elems), lay.kua, lay.elems_a)
    b_counts = distribute_elements(len(b_elems), lay.kub, lay.elems_b)
    a_words, pos = [], 0
    for c in a_counts:
        a_words.append(pack_word(a_elems[pos:pos + c], cfg.bw_a))
        pos += c
    b_words, pos = [], 0
    for c in b_counts:
        b_words.append(pack_word(b_elems[pos:pos + c], cfg.bw_b))
        pos += c
    return a_words, b_words


#: (signed_a, signed_b) combinations the datapath must handle.
SIGNEDNESS = [(True, True), (True, False), (False, True), (False, False)]


def _extreme_operands(cfg, n):
    """Named ``n``-long operand pairs at the corners of both ranges."""
    lo_a, hi_a = value_range(cfg.bw_a, cfg.signed_a)
    lo_b, hi_b = value_range(cfg.bw_b, cfg.signed_b)
    alt_a = [lo_a if i % 2 == 0 else hi_a for i in range(n)]
    alt_b = [lo_b if i % 2 == 0 else hi_b for i in range(n)]
    return {
        "min x min": ([lo_a] * n, [lo_b] * n),
        "max x min": ([hi_a] * n, [lo_b] * n),
        "max x max": ([hi_a] * n, [hi_b] * n),
        "alternating in phase": (alt_a, alt_b),
        "alternating out of phase": (alt_a, alt_b[1:] + alt_b[:1]),
    }


def _run_one_group(cfg, a, b):
    """One group through an emulating and a direct engine: each one's
    AccMem value and PMU counters."""
    a_words, b_words = _make_group_words(cfg, a, b)
    values, pmus = [], []
    for datapath in (True, False):
        engine = MicroEngine(cfg, emulate_datapath=datapath)
        for ku in range(max(cfg.kua, cfg.kub)):
            engine.push_pair(
                a_words[ku] if ku < cfg.kua else 0,
                b_words[ku] if ku < cfg.kub else 0,
                push_a=ku < cfg.kua,
                push_b=ku < cfg.kub,
            )
        value, _ = engine.read_slot(0)
        values.append(value)
        pmus.append(asdict(engine.pmu))
    return values, pmus


class TestMicroEngineFunctional:
    def test_single_group_inner_product(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=8,
                            kua=1, kub=1)
        rng = np.random.default_rng(0)
        a = [int(v) for v in rng.integers(-128, 128, size=8)]
        b = [int(v) for v in rng.integers(-128, 128, size=8)]
        engine = MicroEngine(cfg)
        engine.push_pair(pack_word(a, 8), pack_word(b, 8))
        value, _ = engine.read_slot(0)
        assert value == int(np.dot(a, b))

    def test_accumulation_across_kgroups(self):
        # Two k-groups targeting the same AccMem slot must accumulate.
        cfg = MixGemmConfig(bw_a=8, bw_b=8, kua=1, kub=1,
                            blocking=BlockingParams(mr=1, nr=1))
        engine = MicroEngine(cfg)
        a = [1] * 8
        b = [2] * 8
        engine.push_pair(pack_word(a, 8), pack_word(b, 8))
        engine.push_pair(pack_word(a, 8), pack_word(b, 8))
        value, _ = engine.read_slot(0)
        assert value == 2 * 8 * 2

    def test_read_clears_slot(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=8, kua=1, kub=1)
        engine = MicroEngine(cfg)
        engine.push_pair(pack_word([1] * 8, 8), pack_word([1] * 8, 8))
        first, _ = engine.read_slot(0)
        second, _ = engine.read_slot(0)
        assert first == 8
        assert second == 0

    def test_datapath_matches_direct(self):
        # Every pair and signedness on extreme operands: they drive each
        # field to its range limit and make the digits below the slice
        # negative, which are the borrow-bit cases.
        for bw_a, bw_b in all_size_combinations():
            for signed_a, signed_b in SIGNEDNESS:
                cfg = MixGemmConfig(bw_a=bw_a, bw_b=bw_b,
                                    signed_a=signed_a, signed_b=signed_b)
                n = cfg.layout.group_elements
                for case, (a, b) in _extreme_operands(cfg, n).items():
                    where = (cfg.name, signed_a, signed_b, case)
                    values, pmus = _run_one_group(cfg, a, b)
                    assert values[0] == values[1] == int(np.dot(a, b)), \
                        where
                    assert pmus[0] == pmus[1], where

    def test_protocol_violations(self):
        engine = MicroEngine()
        with pytest.raises(MicroEngineError):
            engine.push_pair(0, 0)
        with pytest.raises(MicroEngineError):
            engine.read_slot(0)
        cfg = MixGemmConfig()
        engine.set_config(cfg)
        with pytest.raises(MicroEngineError):
            engine.read_slot(99)


class TestMicroEngineTiming:
    def test_bs_instructions_cost_one_issue_cycle(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=8, kua=1, kub=1)
        engine = MicroEngine(cfg)
        t0 = engine.now
        engine.push_pair(0, 0)
        assert engine.now == t0 + 1  # no buffer stall on an empty engine

    def test_buffer_fills_cause_stalls(self):
        # A tiny 2-deep buffer must stall a burst of pushes.
        cfg = MixGemmConfig(bw_a=2, bw_b=2, kua=1, kub=1,
                            source_buffer_depth=2)
        engine = MicroEngine(cfg)
        for _ in range(16):
            engine.push_pair(0, 0)
        assert engine.pmu.buffer_full_stall_cycles > 0

    def test_deeper_buffers_stall_less(self):
        # Section III-C: stall fraction decreases with buffer depth.
        stalls = {}
        for depth in (8, 16, 32):
            cfg = MixGemmConfig(bw_a=2, bw_b=2, kua=1, kub=1,
                                source_buffer_depth=depth)
            engine = MicroEngine(cfg)
            for _ in range(256):
                engine.push_pair(0, 0)
            stalls[depth] = engine.pmu.buffer_full_stall_cycles
        assert stalls[8] >= stalls[16] >= stalls[32]

    def test_get_stall_waits_for_drain(self):
        cfg = MixGemmConfig(bw_a=2, bw_b=2, kua=1, kub=1,
                            source_buffer_depth=32)
        engine = MicroEngine(cfg)
        for _ in range(8):
            engine.push_pair(0, 0)
        _, stall = engine.read_slot(0)
        assert stall > 0
        assert engine.pmu.get_stall_cycles == stall

    def test_engine_busy_cycles_track_groups(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=8)
        engine = MicroEngine(cfg)
        a = [pack_word([1] * 8, 8)] * 4
        for ku in range(4):
            engine.push_pair(a[ku], a[ku])
        engine.read_slot(0)
        assert engine.pmu.groups == 1
        assert engine.pmu.engine_busy_cycles == 12
        assert engine.pmu.macs == 32

    def test_advance_models_cpu_work(self):
        cfg = MixGemmConfig()
        engine = MicroEngine(cfg)
        t0 = engine.now
        engine.advance(10)
        assert engine.now == t0 + 10
        with pytest.raises(ValueError):
            engine.advance(-1)


class TestStreamExecution:
    def test_execute_stream(self):
        cfg = MixGemmConfig(bw_a=8, bw_b=8, kua=1, kub=1)
        stream = InstructionStream()
        stream.append(BsSet(payload=0))
        stream.append(BsIp(pack_word([2] * 8, 8), pack_word([3] * 8, 8)))
        stream.append(BsGet(slot=0))
        engine = MicroEngine()
        run = engine.execute(stream, config=cfg)
        assert run.values == [2 * 3 * 8]
        assert run.pmu.ip_instructions == 1
        assert run.pmu.cycles_total >= 3

    def test_execute_requires_config(self):
        stream = InstructionStream()
        stream.append(BsSet(payload=0))
        engine = MicroEngine()
        with pytest.raises(MicroEngineError):
            engine.execute(stream)


#: Small cache blocks so ragged GEMMs cross several m, n and k blocks.
RAGGED_BLOCKING = BlockingParams(mc=8, nc=8, kc=2, mr=4, nr=4)


def _event_gemm(cfg, a, b, *, emulate_datapath, fault_hook=None):
    result = MixGemm(cfg, emulate_datapath=emulate_datapath,
                     backend="event", fault_hook=fault_hook).gemm(a, b)
    return result.c, result.cycles, asdict(result.pmu)


def _ragged_operands(cfg, seed):
    """``m``/``n`` off the 4x4 register tile, ``k`` off the group size."""
    m, k, n = 9, 3 * cfg.layout.group_elements + 5, 7
    lo_a, hi_a = value_range(cfg.bw_a, cfg.signed_a)
    lo_b, hi_b = value_range(cfg.bw_b, cfg.signed_b)
    rng = np.random.default_rng(seed)
    return (rng.integers(lo_a, hi_a + 1, size=(m, k)),
            rng.integers(lo_b, hi_b + 1, size=(k, n)))


@pytest.mark.slow
def test_accmem_fault_lands_identically():
    from repro.robustness.faults import FaultInjector, FaultPlan, FaultSpec

    cfg = MixGemmConfig(bw_a=6, bw_b=4, blocking=RAGGED_BLOCKING)
    a, b = _ragged_operands(cfg, seed=7)
    runs, injected = [], []
    for emulate in (True, False):
        injector = FaultInjector(FaultPlan(
            faults=(FaultSpec(site="accmem", index=3, bit=21),)))
        runs.append(_event_gemm(cfg, a, b, emulate_datapath=emulate,
                                fault_hook=injector))
        injected.append([f.description for f in injector.injected])
    (c, cycles, pmu), (c_direct, cycles_direct, pmu_direct) = runs
    assert len(injected[0]) == 1
    assert injected[0] == injected[1]
    assert not np.array_equal(c, reference_gemm(a, b))
    np.testing.assert_array_equal(c_direct, c)
    assert cycles == cycles_direct
    assert pmu == pmu_direct


#: ``(config, source_buffer_depth, (m, k, n))`` -> ``(C checksum, cycles,
#: PmuCounters fields in declaration order)``.  Recorded on the engine
#: before its per-``bs.set`` operand memo and straight-line ``bs.ip``
#: existed; both must leave every figure unchanged.  Depth 4 keeps the
#: full-buffer stall path pinned (928 stall cycles for a8-w8 16^3).
PINNED_CONFIGS = {
    "a8-w8": dict(bw_a=8, bw_b=8),
    "a4-w2": dict(bw_a=4, bw_b=2),
    "a2-w2u": dict(bw_a=2, bw_b=2, signed_a=False),
    "a8-w2": dict(bw_a=8, bw_b=2),  # kub = 1
}
PINNED = {
    ("a8-w8", 4, (16, 16, 16)):
        (54784495, 4753, (4753, 3072, 928, 176, 8192, 256, 1024, 256, 1)),
    ("a8-w8", 4, (9, 37, 7)):
        (2162564, 3016, (3016, 2304, 696, 66, 6144, 192, 768, 96, 1)),
    ("a8-w8", 16, (16, 16, 16)):
        (54784495, 4753, (4753, 3072, 352, 752, 8192, 256, 1024, 256, 1)),
    ("a8-w8", 16, (9, 37, 7)):
        (2162564, 2836, (2836, 2304, 300, 282, 6144, 192, 768, 96, 1)),
    ("a4-w2", 4, (16, 16, 16)):
        (219658, 4625, (4625, 3072, 928, 176, 16384, 256, 1024, 256, 1)),
    ("a4-w2", 4, (9, 37, 7)):
        (30921, 1636, (1636, 1152, 348, 66, 6144, 96, 384, 96, 1)),
    ("a4-w2", 16, (16, 16, 16)):
        (219658, 4625, (4625, 3072, 352, 752, 16384, 256, 1024, 256, 1)),
    ("a4-w2", 16, (9, 37, 7)):
        (30921, 1636, (1636, 1152, 132, 282, 6144, 96, 384, 96, 1)),
    ("a2-w2u", 4, (16, 16, 16)):
        (-365477, 6801, (6801, 5120, 2848, 304, 32768, 256, 1024, 256, 1)),
    ("a2-w2u", 4, (9, 37, 7)):
        (-53146, 2452, (2452, 1920, 1068, 114, 12288, 96, 384, 96, 1)),
    ("a2-w2u", 16, (16, 16, 16)):
        (-365477, 6801, (6801, 5120, 1888, 1264, 32768, 256, 1024, 256, 1)),
    ("a2-w2u", 16, (9, 37, 7)):
        (-53146, 2452, (2452, 1920, 708, 474, 12288, 96, 384, 96, 1)),
    ("a8-w2", 4, (16, 16, 16)):
        (1503800, 3537, (3537, 2048, 0, 80, 8192, 256, 1024, 256, 1)),
    ("a8-w2", 4, (9, 37, 7)):
        (234725, 2140, (2140, 1536, 0, 30, 6144, 192, 768, 96, 1)),
    ("a8-w2", 16, (16, 16, 16)):
        (1503800, 3537, (3537, 2048, 0, 80, 8192, 256, 1024, 256, 1)),
    ("a8-w2", 16, (9, 37, 7)):
        (234725, 2140, (2140, 1536, 0, 30, 6144, 192, 768, 96, 1)),
}


def _pinned_operands(cfg, m, k, n):
    lo_a, hi_a = value_range(cfg.bw_a, cfg.signed_a)
    lo_b, hi_b = value_range(cfg.bw_b, cfg.signed_b)
    rng = np.random.default_rng(m * 10000 + k * 100 + n)
    return (rng.integers(lo_a, hi_a + 1, size=(m, k)),
            rng.integers(lo_b, hi_b + 1, size=(k, n)))


@pytest.fixture
def monotone_releases(monkeypatch):
    """Assert after every scheduled group that both Source Buffer release
    deques are nondecreasing (the stall path indexes them unsorted)."""
    process_group = MicroEngine._process_group

    def checked(self):
        process_group(self)
        for releases in (self._a_releases, self._b_releases):
            times = list(releases)
            assert times == sorted(times)

    monkeypatch.setattr(MicroEngine, "_process_group", checked)


@pytest.mark.parametrize("emulate", [True, False])
@pytest.mark.parametrize("key", sorted(PINNED))
def test_pmu_pinned(key, emulate, monotone_releases):
    name, depth, (m, k, n) = key
    cfg = MixGemmConfig(source_buffer_depth=depth, **PINNED_CONFIGS[name])
    a, b = _pinned_operands(cfg, m, k, n)
    result = MixGemm(cfg, emulate_datapath=emulate, backend="event").gemm(a, b)
    np.testing.assert_array_equal(result.c, reference_gemm(a, b))
    flat = result.c.astype(np.int64).ravel()
    checksum = int((flat * np.arange(1, flat.size + 1)).sum())
    assert (checksum, result.cycles,
            tuple(asdict(result.pmu).values())) == PINNED[key]


class TestOperandMemo:
    """The engine memoises each u-vector group's DCU operands per
    ``bs.set``; the memo must never leak across configurations and must
    key on word values, so storage faults stay exact."""

    #: Same kua/kub (hence same key shape), different field semantics.
    CONFIGS = (
        MixGemmConfig(bw_a=8, bw_b=8, kua=2, kub=2),
        MixGemmConfig(bw_a=8, bw_b=8, kua=2, kub=2, signed_a=False),
        MixGemmConfig(bw_a=4, bw_b=4, kua=2, kub=2),
    )

    @staticmethod
    def _feed(engine, words):
        for a_word, b_word in words:
            engine.push_pair(a_word, b_word)
        return engine.read_slot(0)[0]

    @pytest.mark.parametrize("emulate", [True, False])
    def test_bs_set_scopes_memo(self, emulate):
        rng = np.random.default_rng(5)
        words = [tuple(int(w) for w in rng.integers(0, 1 << 63, size=2))
                 for _ in range(2)]
        reused = MicroEngine(emulate_datapath=emulate)
        got, fresh = [], []
        for cfg in self.CONFIGS:
            reused.set_config(cfg)
            got.append(self._feed(reused, words))
            fresh.append(self._feed(
                MicroEngine(cfg, emulate_datapath=emulate), words))
        assert got == fresh
        assert len(set(fresh)) == len(fresh)  # the configs disagree

    @pytest.mark.parametrize("emulate", [True, False])
    def test_memo_bounded_and_cleared(self, emulate):
        cfg = MixGemmConfig(bw_a=6, bw_b=4, blocking=RAGGED_BLOCKING)
        a, b = _ragged_operands(cfg, seed=3)
        executor = MixGemm(cfg, emulate_datapath=emulate, backend="event")
        executor.gemm(a, b)
        engine = executor.engine
        for memo, packed in ((engine._a_memo, pack_matrix_a(a, cfg)),
                             (engine._b_memo, pack_matrix_b(b, cfg))):
            kv = packed.kvectors[0]
            # Edge runs past the matrix are all-zero groups.
            groups = {(0,) * kv.ku}
            groups.update(run.group_words(g) for run in packed.kvectors
                          for g in range(run.n_groups))
            assert 0 < len(memo) <= len(groups)
            assert set(memo) <= groups
        engine.set_config(cfg)
        assert not engine._a_memo and not engine._b_memo

    def test_uvector_faults_exact(self):
        from repro.robustness.faults import FaultInjector, FaultPlan

        cfg = MixGemmConfig(bw_a=6, bw_b=4, blocking=RAGGED_BLOCKING)
        a, b = _ragged_operands(cfg, seed=11)
        for seed in range(4):
            plan = FaultPlan.generate(seed, n_faults=2,
                                      sites=("uvector_a", "uvector_b"))
            runs, events = [], []
            for emulate in (True, False):
                injector = FaultInjector(plan)
                runs.append(_event_gemm(cfg, a, b, emulate_datapath=emulate,
                                        fault_hook=injector))
                events.append([f.description for f in injector.injected])
            # The C the faulted words encode, computed off the engine.
            shadow = FaultInjector(plan)
            faulted_a = shadow.on_pack("A", pack_matrix_a(a, cfg)).to_dense()
            faulted_b = shadow.on_pack("B", pack_matrix_b(b, cfg)).to_dense()
            (c, cycles, pmu), (c_direct, cycles_direct, pmu_direct) = runs
            assert len(events[0]) == 2
            assert events[0] == events[1]
            np.testing.assert_array_equal(c, faulted_a @ faulted_b)
            assert not np.array_equal(c, reference_gemm(a, b))
            np.testing.assert_array_equal(c_direct, c)
            assert cycles == cycles_direct
            assert pmu == pmu_direct
