"""The fast path's components: dispatch, executor history, error
parity, the vectorized wrap, the narrow-dtype rule and its timing source.

The contract is not "close" -- it is exact: values bit-for-bit
(including two's-complement AccMem wraparound), cycles, every PMU
counter, and the instruction counts, on every guard-free run.
``tests/core/test_gemm_matrix.py`` asserts it across bit pairs, shapes,
blockings and AccMem widths; the tests here that run both backends
compare everything too.
"""

import numpy as np
import pytest

from repro.core.backend import (
    AUTO,
    EVENT,
    FAST,
    BackendError,
    resolve_backend,
)
from repro.core.binseg import BinSegError, worst_case_inner_product
from repro.core.config import BlockingParams, MixGemmConfig
from repro.core.fastpath import (
    FastGemmKernel,
    exact_dtype,
    wrap_signed_array,
)
from repro.core.gemm import KernelCosts, MixGemm, reference_gemm
from repro.core.microengine import wrap_signed
from repro.core.packcache import PackingCache
from repro.runtime.engine import SIM_BLOCKING
from repro.runtime.plan import InferenceResult, _BoundGemm

# Small aligned blocking so the event oracle stays quick.
BLK = BlockingParams(mc=8, nc=8, kc=2, mr=4, nr=4)


def make_config(bw_a=8, bw_b=8, accmem_bits=16, **kw):
    kw.setdefault("blocking", BLK)
    return MixGemmConfig(bw_a=bw_a, bw_b=bw_b, accmem_bits=accmem_bits,
                         **kw)


def random_operands(config, m, k, n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.integers(-(1 << (config.bw_a - 1)), 1 << (config.bw_a - 1),
                     size=(m, k))
    b = rng.integers(-(1 << (config.bw_b - 1)), 1 << (config.bw_b - 1),
                     size=(k, n))
    return a, b


def run_both(config, m, k, n, seed=0):
    a, b = random_operands(config, m, k, n, seed=seed)
    event = MixGemm(config, emulate_datapath=False, backend=EVENT).gemm(a, b)
    fast = MixGemm(config, emulate_datapath=False, backend=FAST).gemm(a, b)
    return event, fast


def assert_identical(event, fast):
    """The full exactness contract, field by field."""
    np.testing.assert_array_equal(event.c, fast.c)
    assert event.cycles == fast.cycles
    assert event.macs == fast.macs
    ep, fp = event.pmu, fast.pmu
    assert ep.cycles_total == fp.cycles_total
    assert ep.engine_busy_cycles == fp.engine_busy_cycles
    assert ep.buffer_full_stall_cycles == fp.buffer_full_stall_cycles
    assert ep.get_stall_cycles == fp.get_stall_cycles
    assert ep.macs == fp.macs
    assert ep.groups == fp.groups
    assert ep.ip_instructions == fp.ip_instructions
    assert ep.get_instructions == fp.get_instructions
    assert ep.set_instructions == fp.set_instructions
    assert event.instructions == fast.instructions


class TestValuesAndTiming:
    def test_executor_reuse_stays_cumulative(self):
        # The engine clock never resets between gemm() calls; the fast
        # path folds its modelled cycles into the same cumulative state.
        config = make_config()
        a1, b1 = random_operands(config, 5, 12, 6, seed=1)
        a2, b2 = random_operands(config, 7, 8, 5, seed=2)
        ev = MixGemm(config, emulate_datapath=False, backend=EVENT)
        fa = MixGemm(config, emulate_datapath=False, backend=FAST)
        ev.gemm(a1, b1)
        fa.gemm(a1, b1)
        assert_identical(ev.gemm(a2, b2), fa.gemm(a2, b2))

    def test_interleaved_backends_one_executor(self):
        # fast-then-event on ONE executor equals all-event history.
        config = make_config()
        a1, b1 = random_operands(config, 5, 12, 6, seed=4)
        a2, b2 = random_operands(config, 5, 12, 6, seed=5)
        ref = MixGemm(config, emulate_datapath=False, backend=EVENT)
        mix = MixGemm(config, emulate_datapath=False, backend=FAST)
        ref.gemm(a1, b1)
        mix.gemm(a1, b1)
        mix.backend = EVENT
        assert_identical(ref.gemm(a2, b2), mix.gemm(a2, b2))


class TestDispatch:
    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendError):
            resolve_backend("vector", make_config())

    def test_auto_guard_free_picks_fast(self):
        assert resolve_backend(AUTO, make_config()).is_fast

    def test_auto_with_emulation_picks_event(self):
        decision = resolve_backend(AUTO, make_config(),
                                   emulate_datapath=True)
        assert decision.backend == EVENT

    @pytest.mark.parametrize("hook", ["fault_hook", "pack_guard"])
    def test_fidelity_hooks_force_event(self, hook):
        # Even an explicit "fast" request loses to a fidelity hook.
        decision = resolve_backend(FAST, make_config(),
                                   **{hook: object()})
        assert decision.backend == EVENT

    def test_int64_block_bound_forces_event(self):
        # The smallest kc whose Eq. 5 block bound reaches 2**63 at
        # signed a8-w8: 2**46 u-vectors = 2**49 elements * 2**14.
        kc = 1 << 46
        config = make_config(accmem_bits=128, blocking=BlockingParams(
            mc=8, nc=8, kc=kc, mr=4, nr=4))
        shorter = make_config(accmem_bits=128, blocking=BlockingParams(
            mc=8, nc=8, kc=kc - 1, mr=4, nr=4))
        assert worst_case_inner_product(config.kc_elements, 8, 8) \
            >= 1 << 63
        assert worst_case_inner_product(shorter.kc_elements, 8, 8) \
            < 1 << 63
        assert resolve_backend(FAST, shorter).is_fast
        a, b = random_operands(config, 5, 37, 6, seed=11)
        for requested in (FAST, AUTO):
            decision = resolve_backend(requested, config)
            assert decision.backend == EVENT
            assert "exceeds int64 accumulation" in decision.reason
            executor = MixGemm(config, emulate_datapath=False,
                               backend=requested)
            result = executor.gemm(a, b)
            assert result.backend == EVENT
            assert executor.last_decision == decision
            np.testing.assert_array_equal(result.c, reference_gemm(a, b))

    def test_wide_accmem_at_table1_kc_rides_fast(self):
        # The same 128-bit AccMem at Table-I kc bounds far below 2**63:
        # fast, and identical to the event engine over two kc-blocks.
        config = make_config(accmem_bits=128, blocking=BlockingParams())
        assert config.kc_elements == 2048
        assert resolve_backend(FAST, config).is_fast
        assert resolve_backend(AUTO, config).is_fast
        event, fast = run_both(config, 5, 2100, 6, seed=12)
        assert fast.backend == FAST
        assert_identical(event, fast)

    def test_executor_records_decision(self):
        config = make_config()
        executor = MixGemm(config, emulate_datapath=False, backend=AUTO)
        a, b = random_operands(config, 4, 4, 4)
        result = executor.gemm(a, b)
        assert result.backend == FAST
        assert executor.last_decision is not None
        assert executor.last_decision.is_fast

    def test_fault_hook_executor_runs_event(self):
        class Hook:
            def on_pack(self, operand, packed):
                return packed

            def on_accumulate(self, accmem, group_index):
                return None

        config = make_config()
        executor = MixGemm(config, emulate_datapath=False, backend=FAST,
                           fault_hook=Hook())
        a, b = random_operands(config, 4, 4, 4)
        assert executor.gemm(a, b).backend == EVENT


class TestErrorParity:
    @pytest.mark.parametrize("backend", [EVENT, FAST])
    def test_empty_k_raises_same_error(self, backend):
        executor = MixGemm(make_config(), emulate_datapath=False,
                           backend=backend)
        with pytest.raises(BinSegError,
                           match="cannot pack an empty k vector"):
            executor.gemm(np.zeros((3, 0), dtype=np.int64),
                          np.zeros((0, 4), dtype=np.int64))

    @pytest.mark.parametrize("backend", [EVENT, FAST])
    def test_out_of_range_raises_same_error(self, backend):
        executor = MixGemm(make_config(bw_a=4), emulate_datapath=False,
                           backend=backend)
        a = np.full((2, 2), 100)
        b = np.ones((2, 2), dtype=np.int64)
        with pytest.raises(BinSegError):
            executor.gemm(a, b)


class TestWrapSignedArray:
    @pytest.mark.parametrize("bits", [2, 5, 8, 16, 33, 63])
    def test_matches_scalar_wrap(self, bits):
        rng = np.random.default_rng(bits)
        values = rng.integers(-(1 << 62), 1 << 62, size=257)
        expected = [wrap_signed(int(v), bits) for v in values]
        np.testing.assert_array_equal(wrap_signed_array(values, bits),
                                      expected)

    def test_identity_at_64_bits(self):
        values = np.array([np.iinfo(np.int64).min, -1, 0,
                           np.iinfo(np.int64).max])
        np.testing.assert_array_equal(wrap_signed_array(values, 64),
                                      values)

    def test_boundary_values(self):
        values = np.array([(1 << 15) - 1, 1 << 15, -(1 << 15),
                           -(1 << 15) - 1])
        expected = [wrap_signed(int(v), 16) for v in values]
        np.testing.assert_array_equal(wrap_signed_array(values, 16),
                                      expected)


def fast_kernel(config, b):
    return FastGemmKernel(config, np.asarray(b, dtype=np.int64))


def block_dtypes(kernel):
    return [dtype for _, _, dtype in kernel.blocks]


def extreme_operands(pattern, m, k, n):
    """Unsigned-8-bit A against signed-8-bit B at the Eq. 5 extremes."""
    a = np.full((m, k), 255, dtype=np.int64)
    rows, cols = np.indices((k, n))
    if pattern == "extreme":
        b = np.full((k, n), -128, dtype=np.int64)
    elif pattern == "alternating":
        b = np.where((rows + cols) % 2 == 0, 127, -128)
    else:  # "halves": the running sum peaks mid-block, then falls
        b = np.where(rows < k // 2, 127, -128)
    return a, b


def assert_kernel_paths_exact(config, a, b):
    """A fast MixGemm, a bound plan GEMM, the event backend and the
    integer reference all agree (no AccMem wrap)."""
    want = reference_gemm(a, b)
    event = MixGemm(config, emulate_datapath=False, backend=EVENT).gemm(a, b)
    fast = MixGemm(config, emulate_datapath=False, backend=FAST).gemm(a, b)
    assert_identical(event, fast)
    np.testing.assert_array_equal(fast.c, want)
    bound = _BoundGemm(b, config, "fast", PackingCache(), "layer",
                       "quant_linear")
    result = InferenceResult(output=a)
    c = bound(a.astype(bound.input_dtype), result)
    assert c.dtype == bound.kernel.acc_dtype
    np.testing.assert_array_equal(c, want)
    assert [s.cycles for s in result.layer_stats] == [fast.cycles]


class TestExactnessBoundary:
    """The narrow-dtype rule at its edges: each kc-block multiplies in
    float32 below an Eq. 5 bound of 2**24, float64 below 2**53 and
    int64 beyond.  The ``operands=`` rows of
    ``tests/core/test_gemm_matrix.py`` hold every executor to the
    reference on these operands; here the kernel's dtypes, plus the
    int64 branch's values, which need patched ceilings."""

    A8W8_UNSIGNED = MixGemmConfig(bw_a=8, bw_b=8, signed_a=False,
                                  blocking=SIM_BLOCKING)

    def test_exact_dtype_thresholds(self):
        assert exact_dtype(0) is np.float32
        assert exact_dtype((1 << 24) - 1) is np.float32
        assert exact_dtype(1 << 24) is np.float64
        assert exact_dtype((1 << 53) - 1) is np.float64
        assert exact_dtype(1 << 53) is np.int64

    @pytest.mark.parametrize("pattern", ["extreme", "alternating",
                                         "halves"])
    def test_tightest_float32_block(self, pattern):
        # Under SIM_BLOCKING the tightest 2-8-bit block is unsigned
        # a8w8 at kc_eff = 512: 512 * 255 * 128 = 0.996 * 2**24.
        config = self.A8W8_UNSIGNED
        a, b = extreme_operands(pattern, 4, 512, 4)
        kernel = fast_kernel(config, b)
        assert kernel.kc_eff == 512
        assert 512 * 255 * 128 == 16_711_680 < 1 << 24
        assert block_dtypes(kernel) == [np.float32]
        assert kernel.input_dtype is np.float32
        assert kernel.acc_dtype is np.float32
        if pattern == "extreme":
            assert reference_gemm(a, b).min() == -16_711_680

    def test_block_bound_past_2_24_picks_float64(self):
        # kc = 128 u-vectors -> kc_eff = 1024: 1024 * 255 * 128 >= 2**24.
        # The 476-long tail block still fits float32.
        from dataclasses import replace

        config = replace(self.A8W8_UNSIGNED, blocking=BlockingParams(
            mc=16, nc=16, kc=128))
        a, b = extreme_operands("extreme", 4, 1500, 4)
        kernel = fast_kernel(config, b)
        assert block_dtypes(kernel) == [np.float64, np.float32]
        assert kernel.acc_dtype is np.float64
        assert kernel.input_dtype is np.int64

    def test_block_bound_past_2_53_picks_int64(self, monkeypatch):
        # No 2-8-bit block reaches 2**53 at a K that fits in memory
        # (a8w8 would need K > 2.7e11), so lower both float ceilings
        # below this block's bound to drive the int64 branch.
        from repro.core import fastpath

        config = self.A8W8_UNSIGNED
        a, b = extreme_operands("alternating", 4, 512, 4)
        monkeypatch.setattr(fastpath, "_FLOAT64_EXACT", 1 << 20)
        monkeypatch.setattr(fastpath, "_FLOAT32_EXACT", 1 << 10)
        kernel = fast_kernel(config, b)
        assert block_dtypes(kernel) == [np.int64]
        assert kernel.acc_dtype is np.int64
        assert kernel.input_dtype is np.int64
        assert_kernel_paths_exact(config, a, b)

    @pytest.mark.parametrize("accmem_bits", [20, 24])
    def test_sub_container_wrap_stays_integer(self, accmem_bits):
        # Two float32 blocks of -16,711,680 each: the per-block wrap
        # needs integers, so the kernel accumulates in int64.
        config = MixGemmConfig(bw_a=8, bw_b=8, signed_a=False,
                               blocking=SIM_BLOCKING,
                               accmem_bits=accmem_bits)
        a, b = extreme_operands("extreme", 4, 1024, 4)
        kernel = fast_kernel(config, b)
        assert block_dtypes(kernel) == [np.float32, np.float32]
        assert kernel.wrap_bits == accmem_bits
        assert kernel.acc_dtype is np.int64
        assert kernel.input_dtype is np.int64


class TestTimingSource:
    """The fast path times tiles on the event engine and nothing else."""

    def test_fast_gemm_loads_no_analysis_code(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        probe = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.core.config import MixGemmConfig\n"
            "from repro.core.gemm import MixGemm\n"
            "cfg = MixGemmConfig(bw_a=6, bw_b=4)\n"
            "a = np.ones((5, 40), dtype=np.int64)\n"
            "b = np.ones((40, 7), dtype=np.int64)\n"
            "result = MixGemm(cfg, backend='fast').gemm(a, b)\n"
            "assert result.backend == 'fast' and result.cycles > 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('repro.analysis')))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_one_engine_run_per_tile_signature(self, monkeypatch):
        """Configs differing only in mc/nc/kc or AccMem width share one
        engine run, and that run times each of them exactly."""
        from dataclasses import replace

        from repro.core import fastpath

        runs = []
        real = fastpath._run_tile

        def counting(config, costs, n_groups):
            runs.append(config)
            return real(config, costs, n_groups)

        monkeypatch.setattr(fastpath, "_TILE_TIMINGS", {})
        monkeypatch.setattr(fastpath, "_run_tile", counting)
        costs = KernelCosts()
        base = make_config(bw_a=6, bw_b=4, accmem_bits=32)
        variants = [
            base,
            replace(base, blocking=BlockingParams(
                mc=16, nc=32, kc=256, mr=4, nr=4)),
            replace(base, accmem_bits=64),
        ]
        timings = {fastpath.tile_timing(cfg, costs, 5) for cfg in variants}
        assert len(runs) == 1 and len(timings) == 1
        for cfg in variants[1:]:
            assert real(cfg, costs, 5) in timings
        fastpath.tile_timing(make_config(bw_a=4, bw_b=6), costs, 5)
        fastpath.tile_timing(replace(base, blocking=BlockingParams(
            mc=8, nc=8, kc=2, mr=2, nr=4)), costs, 5)
        assert len(runs) == 3
