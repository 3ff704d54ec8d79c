"""Unit tests for the u-engine: DSU schedule, timing, PMU, AccMem."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core.binseg import SUPPORTED_BITWIDTHS, value_range
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
from repro.core.packing import pack_word


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
class TestEventGemmDifferential:
    """Whole event-backend GEMMs: the emulated datapath, the direct
    inner product and ``reference_gemm`` agree on C, and both engine
    modes report identical cycles and PMU counters."""

    @pytest.mark.parametrize("signed_a, signed_b", SIGNEDNESS)
    @pytest.mark.parametrize("bw_b", SUPPORTED_BITWIDTHS)
    @pytest.mark.parametrize("bw_a", SUPPORTED_BITWIDTHS)
    def test_ragged_gemm(self, bw_a, bw_b, signed_a, signed_b):
        cfg = MixGemmConfig(bw_a=bw_a, bw_b=bw_b, signed_a=signed_a,
                            signed_b=signed_b, blocking=RAGGED_BLOCKING)
        a, b = _ragged_operands(cfg, seed=bw_a * 100 + bw_b * 10
                                + 2 * signed_a + signed_b)
        c, cycles, pmu = _event_gemm(cfg, a, b, emulate_datapath=True)
        c_direct, cycles_direct, pmu_direct = _event_gemm(
            cfg, a, b, emulate_datapath=False)
        np.testing.assert_array_equal(c, reference_gemm(a, b))
        np.testing.assert_array_equal(c_direct, c)
        assert cycles == cycles_direct
        assert pmu == pmu_direct

    def test_accmem_fault_lands_identically(self):
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
