"""REP001-REP011 linter: every rule fires, every rule suppresses."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.astlint import (
    KERNEL_MODULE_SUFFIXES,
    is_test_path,
    lint_paths,
    lint_source,
)
from repro.analysis.diagnostics import AnalysisError


def rules(source, path="src/repro/pkg/mod.py"):
    return [d.rule for d in lint_source(textwrap.dedent(source), path)]


KERNEL_PATH = "src/repro/core/binseg.py"


class TestRep001:
    def test_stdlib_only_base_flagged(self):
        assert rules("class FooError(ValueError):\n    pass\n") == [
            "REP001"]

    def test_repro_error_base_passes(self):
        assert rules(
            "class FooError(ReproError, ValueError):\n    pass\n") == []

    def test_derived_repro_error_passes(self):
        # Subclassing another repo error type inherits the lineage.
        assert rules("class SubError(BinSegError):\n    pass\n") == []

    def test_non_exception_class_ignored(self):
        assert rules("class Widget(Base):\n    pass\n") == []

    def test_warning_classes_exempt(self):
        assert rules(
            "class SlowWarning(UserWarning):\n    pass\n") == []

    def test_suppressed(self):
        src = "class FooError(ValueError):  # repro: noqa REP001\n    pass\n"
        assert rules(src) == []


class TestRep002:
    def test_global_numpy_rng_flagged(self):
        assert rules("x = np.random.rand(3)\n") == ["REP002"]

    def test_seeded_default_rng_passes(self):
        assert rules("rng = np.random.default_rng(7)\n") == []

    def test_unseeded_default_rng_flagged(self):
        assert rules("rng = np.random.default_rng()\n") == ["REP002"]

    def test_stdlib_random_flagged(self):
        assert rules("import random\nx = random.random()\n") == [
            "REP002"]

    def test_test_files_exempt(self):
        assert rules("x = np.random.rand(3)\n",
                     path="tests/core/test_x.py") == []

    def test_suppressed(self):
        assert rules(
            "x = np.random.rand(3)  # repro: noqa REP002\n") == []


class TestRep003:
    def test_float_literal_in_kernel_flagged(self):
        assert rules("SCALE = 1.5\n", path=KERNEL_PATH) == ["REP003"]

    def test_true_division_in_kernel_flagged(self):
        assert rules("def f(a, b):\n    return a / b\n",
                     path=KERNEL_PATH) == ["REP003"]

    def test_float_call_in_kernel_flagged(self):
        assert rules("def f(a):\n    return float(a)\n",
                     path=KERNEL_PATH) == ["REP003"]

    def test_allowed_inside_float_annotated_function(self):
        src = "def ratio(a: int, b: int) -> float:\n    return a / b\n"
        assert rules(src, path=KERNEL_PATH) == []

    def test_floor_division_passes(self):
        assert rules("def f(a, b):\n    return a // b\n",
                     path=KERNEL_PATH) == []

    def test_rule_scoped_to_kernel_modules(self):
        assert rules("SCALE = 1.5\n", path="src/repro/sim/perf.py") == []

    def test_suppressed(self):
        assert rules("SCALE = 1.5  # repro: noqa REP003\n",
                     path=KERNEL_PATH) == []

    def test_kernel_suffixes_cover_the_four_modules(self):
        assert len(KERNEL_MODULE_SUFFIXES) == 4


class TestRep004:
    def test_bare_except_flagged(self):
        src = "try:\n    f()\nexcept:\n    pass\n"
        assert rules(src) == ["REP004"]

    def test_except_exception_pass_flagged(self):
        src = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert rules(src) == ["REP004"]

    def test_except_exception_with_handling_passes(self):
        src = "try:\n    f()\nexcept Exception as e:\n    log(e)\n"
        assert rules(src) == []

    def test_narrow_except_passes(self):
        src = "try:\n    f()\nexcept ValueError:\n    pass\n"
        assert rules(src) == []

    def test_suppressed(self):
        src = "try:\n    f()\nexcept:  # repro: noqa REP004\n    pass\n"
        assert rules(src) == []


class TestRep005:
    COST_PATH = "src/repro/sim/energy.py"

    def test_missing_units_flagged(self):
        src = "def total_cycles(self):\n    return 4\n"
        assert rules(src, path=self.COST_PATH) == ["REP005"]

    def test_docstring_with_units_passes(self):
        src = ('def total_cycles(self):\n'
               '    """Latency in clock cycles."""\n    return 4\n')
        assert rules(src, path=self.COST_PATH) == []

    def test_non_cost_names_ignored(self):
        src = "def helper(self):\n    return 4\n"
        assert rules(src, path=self.COST_PATH) == []

    def test_private_functions_ignored(self):
        src = "def _cycles(self):\n    return 4\n"
        assert rules(src, path=self.COST_PATH) == []

    def test_rule_scoped_to_cost_models(self):
        src = "def total_cycles(self):\n    return 4\n"
        assert rules(src, path="src/repro/core/gemm.py") == []

    def test_suppressed(self):
        src = ("def watts(self):  # repro: noqa REP005\n"
               "    return 4\n")
        assert rules(src, path=self.COST_PATH) == []


class TestRep006:
    SRC = ("def drive(engine, pairs):\n"
           "    for pa, pb in pairs:\n"
           "        engine.push_pair(pa, pb)\n")

    def test_push_pair_outside_core_flagged(self):
        assert rules(self.SRC, path="src/repro/sim/custom.py") == [
            "REP006"]

    def test_push_pair_inside_core_passes(self):
        assert rules(self.SRC, path="src/repro/core/gemm.py") == []

    def test_push_pair_in_tests_exempt(self):
        assert rules(self.SRC, path="tests/sim/test_custom.py") == []

    def test_other_attribute_calls_pass(self):
        assert rules("engine.read_slot(0)\n",
                     path="src/repro/sim/custom.py") == []

    def test_hint_steers_to_dispatch(self):
        diags = lint_source(self.SRC, "src/repro/sim/custom.py")
        assert "MixGemm" in diags[0].hint

    def test_suppressed(self):
        src = ("engine.push_pair(pa, pb)  # repro: noqa REP006\n")
        assert rules(src, path="src/repro/sim/custom.py") == []


class TestRep008:
    def test_bare_lock_flagged(self):
        assert rules("lock = threading.Lock()\n") == ["REP008"]

    def test_bare_rlock_flagged(self):
        assert rules("lock = threading.RLock()\n") == ["REP008"]

    def test_imported_name_flagged(self):
        src = "from threading import Lock\nlock = Lock()\n"
        assert rules(src) == ["REP008"]

    def test_aliased_import_flagged(self):
        src = "from threading import RLock as RL\nlock = RL()\n"
        assert rules(src) == ["REP008"]

    def test_factory_calls_pass(self):
        src = ("lock = make_lock('C._lock')\n"
               "rlock = make_rlock('C._rlock')\n")
        assert rules(src) == []

    def test_other_threading_primitives_pass(self):
        # Only the two raw mutex constructors are factory-gated.
        src = ("event = threading.Event()\n"
               "cond = threading.Condition()\n")
        assert rules(src) == []

    @pytest.mark.parametrize("path", [
        "src/repro/core/locks.py",
        "src/repro/analysis/concurrency/sanitizer.py",
        "src/repro/core/packcache.py",
        "src/repro/runtime/serving.py",
    ])
    def test_allowlisted_modules_exempt(self, path):
        assert rules("lock = threading.Lock()\n", path=path) == []

    def test_tests_exempt(self):
        assert rules("lock = threading.Lock()\n",
                     path="tests/core/test_x.py") == []

    def test_hint_names_the_factory(self):
        diags = lint_source("lock = threading.Lock()\n",
                            "src/repro/pkg/mod.py")
        assert "make_lock" in diags[0].hint

    def test_suppressed(self):
        src = "lock = threading.Lock()  # repro: noqa REP008\n"
        assert rules(src) == []


RUNTIME_PATH = "src/repro/runtime/mod.py"


class TestRep009:
    def test_unbounded_queue_flagged(self):
        assert rules("q = queue.Queue()\n",
                     path=RUNTIME_PATH) == ["REP009"]

    def test_simple_queue_flagged(self):
        assert rules("q = queue.SimpleQueue()\n",
                     path=RUNTIME_PATH) == ["REP009"]

    def test_imported_names_flagged(self):
        src = ("from queue import Queue, SimpleQueue\n"
               "a = Queue()\n"
               "b = SimpleQueue()\n")
        assert rules(src, path=RUNTIME_PATH) == ["REP009", "REP009"]

    def test_aliased_import_flagged(self):
        src = "from queue import Queue as Q\nq = Q()\n"
        assert rules(src, path=RUNTIME_PATH) == ["REP009"]

    def test_zero_maxsize_flagged(self):
        # The stdlib treats maxsize <= 0 as "infinite", which silently
        # voids the bound the rule exists to guarantee.
        assert rules("q = queue.Queue(maxsize=0)\n",
                     path=RUNTIME_PATH) == ["REP009"]
        assert rules("q = queue.Queue(0)\n",
                     path=RUNTIME_PATH) == ["REP009"]

    def test_explicit_maxsize_passes(self):
        src = ("a = queue.Queue(maxsize=8)\n"
               "b = queue.Queue(capacity)\n"
               "c = queue.LifoQueue(maxsize=4)\n")
        assert rules(src, path=RUNTIME_PATH) == []

    def test_rule_scoped_to_runtime(self):
        assert rules("q = queue.Queue()\n",
                     path="src/repro/core/mod.py") == []

    def test_tests_exempt(self):
        assert rules("q = queue.Queue()\n",
                     path="tests/runtime/test_x.py") == []

    def test_hint_steers_to_admission_control(self):
        diags = lint_source("q = queue.Queue()\n", RUNTIME_PATH)
        assert "admission control" in diags[0].hint

    def test_suppressed(self):
        src = "q = queue.Queue()  # repro: noqa REP009\n"
        assert rules(src, path=RUNTIME_PATH) == []


class TestNoqaEngine:
    def test_blanket_noqa_suppresses_everything(self):
        assert rules("x = np.random.rand(3)  # repro: noqa\n") == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        assert rules(
            "x = np.random.rand(3)  # repro: noqa REP004\n") == [
            "REP002"]

    def test_multi_rule_noqa(self):
        src = ("SCALE = float(1.5)  # repro: noqa REP003,REP002\n")
        assert rules(src, path=KERNEL_PATH) == []


class TestInfrastructure:
    def test_syntax_error_becomes_rep000(self):
        diags = lint_source("def broken(:\n", "bad.py")
        assert [d.rule for d in diags] == ["REP000"]

    def test_is_test_path(self):
        assert is_test_path("tests/core/test_binseg.py")
        assert is_test_path("conftest.py")
        assert not is_test_path("src/repro/core/binseg.py")

    def test_lint_paths_missing_target(self):
        with pytest.raises(AnalysisError):
            lint_paths(["/no/such/dir"])

    def test_lint_paths_walks_directory(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        (tmp_path / "bad.py").write_text(
            "class E(ValueError):\n    pass\n")
        report = lint_paths([tmp_path])
        assert [d.rule for d in report] == ["REP001"]

    def test_repo_src_tree_is_clean(self):
        # The satellite guarantee: zero error-severity findings on src/.
        src = Path(__file__).resolve().parents[2] / "src"
        report = lint_paths([src])
        assert report.errors == []


class TestRep010AccmemLiterals:
    def test_keyword_literal_flagged(self):
        assert rules("run(accmem_bits=32)\n") == ["REP010"]

    def test_assignment_literal_flagged(self):
        assert rules("accmem_bits = 16\n") == ["REP010"]
        assert rules("self.accmem_bits = 24\n") == ["REP010"]

    def test_default_arg_literal_flagged(self):
        assert rules("def f(accmem_bits=48):\n    pass\n") == ["REP010"]
        assert rules("def f(*, accmem_bits=48):\n    pass\n") \
            == ["REP010"]

    def test_comparison_against_literal_flagged(self):
        assert rules("ok = accmem_bits >= 24\n") == ["REP010"]
        assert rules("ok = cfg.accmem_bits == 64\n") == ["REP010"]

    def test_bits_vs_container_width_flagged(self):
        assert rules("if bits >= 64:\n    pass\n") == ["REP010"]
        assert rules("if 64 > acc_bits:\n    pass\n") == ["REP010"]

    def test_named_constants_pass(self):
        src = textwrap.dedent("""
            run(accmem_bits=DEFAULT_ACCMEM_BITS)
            accmem_bits = config.accmem_bits
            if bits >= ACCMEM_CONTAINER_BITS:
                pass
        """)
        assert rules(src) == []

    def test_other_bit_comparisons_pass(self):
        # operand widths against non-container literals are fine
        assert rules("if weight_bits == 8:\n    pass\n") == []
        assert rules("if act_bits <= 8:\n    pass\n") == []

    def test_config_module_exempt(self):
        src = "DEFAULT_ACCMEM_BITS = 64\nself.accmem_bits = 64\n"
        assert rules(src, path="src/repro/core/config.py") == []

    def test_test_files_exempt(self):
        assert rules("run(accmem_bits=12)\n",
                     path="tests/core/test_gemm.py") == []

    def test_noqa_suppresses(self):
        assert rules("run(accmem_bits=12)  # repro: noqa REP010\n") \
            == []


class TestRep011SharedMemoryCleanup:
    def test_unpaired_creation_flagged(self):
        src = """
        from multiprocessing import shared_memory

        def leak():
            return shared_memory.SharedMemory(create=True, size=64)
        """
        assert rules(src, path=RUNTIME_PATH) == ["REP011"]

    def test_assignment_without_cleanup_flagged(self):
        src = """
        from multiprocessing import shared_memory

        def leak():
            shm = shared_memory.SharedMemory(create=True, size=64)
            shm.buf[0] = 1
        """
        assert rules(src, path=RUNTIME_PATH) == ["REP011"]

    def test_context_manager_passes(self):
        src = """
        from multiprocessing import shared_memory

        def ok():
            with shared_memory.SharedMemory(create=True, size=64) as s:
                return bytes(s.buf[:4])
        """
        assert rules(src, path=RUNTIME_PATH) == []

    def test_try_finally_close_passes(self):
        src = """
        from multiprocessing import shared_memory

        def ok():
            shm = None
            try:
                shm = shared_memory.SharedMemory(create=True, size=64)
                return bytes(shm.buf[:4])
            finally:
                if shm is not None:
                    shm.close()
                    shm.unlink()
        """
        assert rules(src, path=RUNTIME_PATH) == []

    def test_finally_without_cleanup_still_flagged(self):
        src = """
        from multiprocessing import shared_memory

        def leak():
            try:
                shm = shared_memory.SharedMemory(create=True, size=64)
            finally:
                log("done")
        """
        assert rules(src, path=RUNTIME_PATH) == ["REP011"]

    def test_attach_by_name_needs_cleanup_too(self):
        # attaching maps the segment: an unclosed mapping pins memory
        src = "s = SharedMemory(name='seg')\n"
        assert rules(src, path=RUNTIME_PATH) == ["REP011"]

    def test_rule_scoped_to_runtime(self):
        src = "s = shared_memory.SharedMemory(create=True, size=8)\n"
        assert rules(src, path="src/repro/core/mod.py") == []

    def test_tests_exempt(self):
        src = "s = shared_memory.SharedMemory(create=True, size=8)\n"
        assert rules(src, path="tests/runtime/test_x.py") == []

    def test_hint_mentions_dev_shm(self):
        diags = lint_source(
            "s = shared_memory.SharedMemory(create=True, size=8)\n",
            RUNTIME_PATH)
        assert "/dev/shm" in diags[0].hint

    def test_suppressed(self):
        src = ("s = shared_memory.SharedMemory(create=True, size=8)"
               "  # repro: noqa REP011\n")
        assert rules(src, path=RUNTIME_PATH) == []


class TestRep013CycleCostLiterals:
    def test_assignment_literal_flagged(self):
        assert rules("dispatch_latency = 7\n") == ["REP013"]
        assert rules("self.kgroup_overhead = 4\n") == ["REP013"]

    def test_annotated_assignment_flagged(self):
        assert rules("stall_cycles: int = 3\n") == ["REP013"]

    def test_keyword_literal_flagged(self):
        assert rules("run(load_cost=2)\n") == ["REP013"]

    def test_default_arg_literal_flagged(self):
        assert rules("def f(inner_loop_overhead=4):\n    pass\n") \
            == ["REP013"]
        assert rules("def f(*, get_cost=1):\n    pass\n") == ["REP013"]

    def test_zero_initializer_passes(self):
        # accumulators start at zero everywhere; only nonzero literals
        # encode an actual cost.
        assert rules("cycles = 0\n") == []
        assert rules("total_cost = 0\n") == []

    def test_named_constants_pass(self):
        src = textwrap.dedent("""
            latency = BS_IP_COST
            run(load_cost=costs.load_cost)
            barrier_cycles = DEFAULT_BARRIER_CYCLES
        """)
        assert rules(src) == []

    def test_unrelated_names_pass(self):
        assert rules("cost_estimate = 5\n") == []
        assert rules("latency_bins = 8\n") == []

    def test_isa_and_config_homes_exempt(self):
        src = "BS_IP_COST = 1\nload_cost = 1\n"
        assert rules(src, path="src/repro/core/isa.py") == []
        assert rules(src, path="src/repro/core/config.py") == []

    def test_cost_package_exempt(self):
        assert rules("intercept_cycles = 57\n",
                     path="src/repro/analysis/cost/calibrate.py") == []

    def test_test_files_exempt(self):
        assert rules("stall_cycles = 17\n",
                     path="tests/core/test_gemm.py") == []

    def test_noqa_suppresses(self):
        assert rules(
            "dram_latency = 80  # repro: noqa REP013\n") == []

    def test_seeded_fixture_fires_in_place_exempt(self):
        fixture = (Path(__file__).parent / "lint_fixtures"
                   / "seeded_cycle_cost.py")
        assert [d.rule for d in lint_paths([str(fixture)])
                .diagnostics] == []

    def test_shipped_sim_and_parallel_modules_are_clean(self):
        src_root = Path(__file__).resolve().parents[2] / "src"
        for mod in ("repro/sim/cache.py", "repro/core/parallel.py"):
            assert [d.rule for d in
                    lint_paths([str(src_root / mod)]).diagnostics] \
                == [], mod
