"""Zero-copy shared-memory plan export/attach: exactness + lifecycle."""

import dataclasses
import multiprocessing as mp

import numpy as np
import pytest

from repro.analysis.ranges import verify_plan
from repro.core.packcache import PackingCache
from repro.robustness.faults import demo_graph, demo_input
from repro.runtime.graph import GraphModel
from repro.runtime.plan import (
    PlanShareError,
    attach_plan,
    compile_graph,
    export_plan,
    iter_plan_arrays,
    plan_share_stats,
)


@pytest.fixture(scope="module")
def graph():
    return demo_graph()


def _compile(graph, **kwargs):
    kwargs.setdefault("backend", "mixgemm")
    return compile_graph(graph, **kwargs)


def _run_stats(result):
    return [(s.op, s.config, s.macs, s.cycles, s.layer)
            for s in result.layer_stats]


def _attach_child(conn, handle, x):
    """Spawn-process entry: attach the shared plan and run one input."""
    try:
        with attach_plan(handle) as attached:
            stats = plan_share_stats(attached.plan, attached.buf)
            result = attached.plan.run(x)
            conn.send(("ok", result.output, result.total_cycles,
                       _run_stats(result), stats))
    except Exception as exc:  # pragma: no cover - failure reporting
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


class TestRoundTrip:
    @pytest.mark.parametrize("gemm_backend", ["fast", "event"])
    def test_attach_is_bit_and_cycle_exact(self, graph, gemm_backend):
        x = demo_input(batch=2, size=6, seed=3)
        reference = _compile(graph, gemm_backend=gemm_backend)
        want = reference.run(x)
        plan = _compile(graph, gemm_backend=gemm_backend)
        with export_plan(plan) as shared:
            with attach_plan(shared.handle) as attached:
                got = attached.plan.run(x)
                assert np.array_equal(got.output, want.output)
                assert got.total_cycles == want.total_cycles
                assert _run_stats(got) == _run_stats(want)

    def test_accmem_wrap_config_round_trips(self, graph):
        """A wrapping accumulator config survives the shm round-trip."""
        x = demo_input(batch=2, size=6, seed=5)
        want = _compile(graph, accmem_bits=12).run(x)
        plan = _compile(graph, accmem_bits=12)
        with export_plan(plan) as shared:
            assert shared.handle.accmem_bits == 12
            with attach_plan(shared.handle) as attached:
                got = attached.plan.run(x)
                assert np.array_equal(got.output, want.output)
                assert got.total_cycles == want.total_cycles

    def test_fresh_process_round_trip(self, graph):
        """Export here, attach in a spawned process: identical result."""
        x = demo_input(batch=1, size=6, seed=7)
        plan = _compile(graph)
        want = plan.run(x)  # exporter serves from the segment too
        with export_plan(plan) as shared:
            ctx = mp.get_context("spawn")
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_attach_child,
                               args=(child, shared.handle, x))
            proc.start()
            child.close()
            try:
                assert parent.poll(60.0), "child never reported"
                msg = parent.recv()
            finally:
                parent.close()
                proc.join(timeout=10.0)
        assert msg[0] == "ok", msg
        _, output, cycles, stats, share = msg
        assert np.array_equal(output, want.output)
        assert cycles == want.total_cycles
        assert stats == _run_stats(want)
        # the child held zero private plan bytes: one copy, N views
        assert share["plan_bytes_private"] == 0
        assert share["plan_bytes_shared"] == share["plan_bytes_total"]


def _held_arrays(obj):
    """Every ndarray reachable from ``obj``'s attributes via containers."""
    pending = list(vars(obj).values())
    while pending:
        value = pending.pop()
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (list, tuple)):
            pending.extend(value)
        elif isinstance(value, dict):
            pending.extend(value.values())


def _segment_span(buf):
    raw = np.frombuffer(buf, dtype=np.uint8)
    start = int(raw.__array_interface__["data"][0])
    return start, start + raw.nbytes


class TestZeroCopyDiscipline:
    @pytest.mark.parametrize("accmem_bits", [64, 12])
    def test_attached_kernels_hold_only_segment_views(self, graph,
                                                      accmem_bits):
        """``plan_bytes_private`` only sees the exported slots; a panel
        cached anywhere else on a kernel would be a private per-worker
        copy it cannot count.  Every array a kernel holds must alias the
        segment."""
        plan = _compile(graph, gemm_backend="fast", accmem_bits=accmem_bits)
        with export_plan(plan) as shared:
            with attach_plan(shared.handle) as attached:
                start, end = _segment_span(attached.buf)
                kernels = [gemm.kernel for step in attached.plan.steps
                           for gemm in (getattr(step, "gemms", None)
                                        or [getattr(step, "gemm", None)])
                           if gemm is not None]
                assert kernels
                for kernel in kernels:
                    arrays = list(_held_arrays(kernel))
                    assert arrays
                    for arr in arrays:
                        addr = int(arr.__array_interface__["data"][0])
                        assert start <= addr
                        assert addr + arr.nbytes <= end

    def test_exporter_rebinds_onto_segment(self, graph):
        plan = _compile(graph)
        with export_plan(plan) as shared:
            stats = plan_share_stats(plan, shared.buf)
            assert stats["plan_bytes_private"] == 0
            assert stats["plan_bytes_shared"] == stats["plan_bytes_total"]
            assert stats["plan_bytes_total"] > 0

    def test_views_are_read_only(self, graph):
        plan = _compile(graph)
        with export_plan(plan) as shared:
            with attach_plan(shared.handle) as attached:
                for _, arr, _ in iter_plan_arrays(attached.plan):
                    with pytest.raises(ValueError):
                        arr[(0,) * arr.ndim] = 1

    def test_manifest_digests_are_content_fingerprints(self, graph):
        plan = _compile(graph)
        with export_plan(plan) as shared:
            by_key = {key: arr for key, arr, _ in iter_plan_arrays(plan)}
            for spec in shared.handle.arrays:
                assert spec.digest == \
                    PackingCache.fingerprint(by_key[spec.key])


class TestRejection:
    def test_released_source_refuses_export(self, graph):
        plan = _compile(graph)
        plan.release_source()
        with pytest.raises(PlanShareError, match="released"):
            export_plan(plan)

    def test_unlinked_segment_refuses_attach(self, graph):
        plan = _compile(graph)
        shared = export_plan(plan)
        handle = shared.handle
        shared.close()
        shared.unlink()
        with pytest.raises(PlanShareError, match="does not exist"):
            attach_plan(handle)

    def test_tampered_segment_refuses_attach(self, graph):
        """A flipped payload byte fails the manifest fingerprint."""
        plan = _compile(graph)
        with export_plan(plan) as shared:
            spec = max(shared.handle.arrays,
                       key=lambda s: np.dtype(s.dtype).itemsize)
            shared.buf[spec.offset] ^= 0xFF
            with pytest.raises(PlanShareError, match="tampered"):
                attach_plan(shared.handle)

    def test_graph_skew_refuses_attach(self, graph):
        """A handle whose graph differs from the segment's is rejected."""
        plan = _compile(graph)
        with export_plan(plan) as shared:
            skewed = GraphModel.from_json(shared.handle.graph_json)
            node = next(n for n in skewed.nodes if "weight" in n.tensors)
            node.tensors["weight"] = node.tensors["weight"] + 0.5
            handle = dataclasses.replace(
                shared.handle, graph_json=skewed.to_json())
            with pytest.raises(PlanShareError, match="fingerprint"):
                attach_plan(handle)

    def test_tamper_after_attach_caught_by_verify_plan(self, graph):
        """Post-attach corruption trips the plan-equivalence verifier.

        attach_plan's fingerprints gate the *attach*; anything that
        scribbles on the segment afterwards (the views are read-only,
        but the owner's buffer is writable) diverges the baked integer
        panels from the source quantization, which is exactly what
        ``repro check --verify-plan`` (RANGE-EQUIV) proves against.
        """
        plan = _compile(graph)
        with export_plan(plan) as shared:
            with attach_plan(shared.handle) as attached:
                assert verify_plan(attached.plan) == []
                spec = next(s for s in shared.handle.arrays
                            if ".block" in s.key or s.key.endswith(".b"))
                # flip the first element's exponent byte: the baked
                # panel value changes by orders of magnitude
                hi = spec.offset + np.dtype(spec.dtype).itemsize - 1
                shared.buf[hi] ^= 0x40
                diags = verify_plan(attached.plan)
                assert diags, "tamper went undetected"
                assert all(d.rule == "RANGE-EQUIV" for d in diags)


class TestLifecycle:
    def test_close_and_unlink_idempotent(self, graph):
        shared = export_plan(_compile(graph))
        shared.close()
        shared.close()
        shared.unlink()
        shared.unlink()

    def test_attached_close_does_not_unlink(self, graph):
        plan = _compile(graph)
        with export_plan(plan) as shared:
            attached = attach_plan(shared.handle)
            attached.close()
            attached.close()
            # the segment must still be attachable: owner unlinks
            attach_plan(shared.handle).close()
