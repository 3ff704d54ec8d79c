"""The plan differential matrix: every plan mode against its oracles.

Each case is one :class:`Row` of the matrix's axes (graph, bit pair,
AccMem width, batch sizes, plan mode, guard plant).  :func:`_check`
holds its plan to the numpy plan's output bytes where no AccMem can
wrap and the event plan's where one can, and to the event plan's
``LayerStats`` and act/acc/out extrema; both oracles lower every conv
through im2row (``direct`` switched off).  The plan must take the conv
lowerings the row declares and pass :func:`verify_plan`; an unfused
plan must equal the fused one, an attached plan its exporter.  Under
guards the fused plan must give the unfused one's ``GuardError`` (node
and message) or its bytes, stats, fault events, recovered layers,
warnings and ranges, and a planted fault must trip at its own node.
Every plan shares the K-order choice and the tiled epilogue constants,
so the wide-K conv also keeps an oracle built from :mod:`repro.nn.im2col`.
Tier-1 runs the rows without a mark; ``-m slow`` runs the rest.
"""

import copy
import functools
import itertools
import warnings
from collections import Counter, namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np
import pytest

from repro.analysis.ranges import observing_ranges, verify_plan
from repro.core.binseg import value_range
from repro.core.config import MixGemmConfig
from repro.core.gemm import MixGemm
from repro.models.builders import build_tiny
from repro.nn.functional_quant import weight_absmax_scale
from repro.nn.im2col import (
    K_ORDER_CHANNELS_LAST,
    K_ORDER_IM2ROW,
    channels_last_order,
    im2row,
    rows_to_nchw,
    weight_matrix,
)
from repro.nn.layers import (
    Conv2d,
    Flatten,
    LayerQuantSpec,
    QuantConv2d,
    QuantLinear,
    ReLU,
    Sequential,
    seed_init,
)
from repro.quant.affine import QuantParams, quantize
from repro.robustness import faults
from repro.robustness.errors import GuardError
from repro.runtime.engine import InferenceEngine
from repro.runtime.export_modules import export_model
from repro.runtime.graph import export_sequential
from repro.runtime.plan import (
    SIM_BLOCKING,
    _compile,
    _effective_wiring,
    attach_plan,
    compile_graph,
    export_plan,
)

_NETS = ("alexnet", "vgg16", "resnet18", "mobilenet_v1", "regnet_x_400mf",
         "efficientnet_b0")
_LEVELS = ("light", "standard", "full")
_BITS = ((8, 8), (4, 4), (2, 2))
_INPUT_PLANTS = {"nan_input": np.nan, "inf_input": np.inf,
                 "-inf_input": -np.inf}
#: The synthetic graphs -- conv (stride 2) -> grouped conv -> linear,
#: one 4 -> 6 channel conv of the row's geometry and a 64 -> 4 channel
#: 3x3 a8w8 conv -- with their input's ``(C, H, W)`` and scale.  The
#: sweep's saturates the wide activation widths, so 16-bit AccMems wrap.
_INPUTS = {"sweep": ((1, 24, 24), 8.0), "conv": ((4, 13, 11), 2.0),
           "wide_k": ((64, 5, 5), 8.0)}

#: The conv lowerings of each graph's deployed plan (fast, unguarded).
_LOWERINGS = {
    "sweep": {"rows": 2}, "demo": {"kernel_rows": 2},
    "alexnet": {"kernel_rows": 3}, "vgg16": {"kernel_rows": 4},
    "resnet18": {"kernel_rows": 4, "direct": 1, "rows": 1},
    "mobilenet_v1": {"direct": 2, "rows": 3},
    "regnet_x_400mf": {"kernel_rows": 1, "direct": 5, "rows": 2},
    "efficientnet_b0": {"direct": 3, "rows": 3},
}


@dataclass
class Row:
    """One case: a graph, how it is quantized, and the plan under test.

    ``plan`` is ``fast`` (deployed), ``event``, ``numpy``, ``unfused``,
    ``attached`` (exported, then attached in-process) or a guard level.
    ``lowering`` counts the plan's conv steps by how they lower,
    ``conv`` is the single conv's ``(kernel, padding, stride, groups)``
    and ``plant`` a fault planted under guards (``fault:<site>``: a
    fault plan drawn from ``seed``).  ``wraps`` asserts that the event
    plan's bytes differ from the numpy plan's.
    """

    graph: str
    plan: str
    lowering: dict = None
    bits: tuple = (8, 8)
    signed: bool = True
    accmem: int = 64
    batches: tuple = (1, 3)
    conv: tuple = (3, 1, 1, 1)
    quant: bool = True
    hw: tuple = (12, 12)
    salt: bool = False
    plant: str = ""
    backend: str = "mixgemm"
    seed: int = 2
    wraps: bool = False


def _declared(row):
    """The row's conv lowerings.  By default the graph's deployed ones,
    except that event and numpy plans, guarded GEMMs (``standard`` and
    ``full``, or any fault plan) and numpy guards take no kernel rows:
    they have no fast block to slice."""
    if row.lowering is not None:
        return row.lowering
    lowering = Counter(_LOWERINGS[row.graph])
    if (row.plan in ("event", "numpy", "standard", "full")
            or row.backend == "numpy" or row.plant.startswith("fault:")):
        lowering["rows"] += lowering.pop("kernel_rows", 0)
    return dict(lowering)


def _row_id(row):
    """The graph, the plan and every other axis the row sets."""
    parts = [row.graph, row.plan]
    for f in fields(Row)[3:]:
        value = getattr(row, f.name)
        if value != f.default:
            if isinstance(value, tuple):
                value = ".".join(map(str, value))
            parts.append(f"{f.name}={value}")
    return "-".join(parts)


@functools.lru_cache(maxsize=None)
def _net(name):
    if name == "demo":
        return faults.demo_graph()
    seed_init(13)
    model = build_tiny(name, act_bits=8, weight_bits=8)
    model.eval()
    return export_model(model, name=name)


def _graph(row):
    """A fresh graph for ``row`` (plants and fault plans mutate it)."""
    if row.graph not in _INPUTS:
        return copy.deepcopy(_net(row.graph))
    a, w = row.bits
    spec = LayerQuantSpec(act_bits=a, weight_bits=w, act_signed=row.signed)
    if row.graph == "sweep":
        # K up to 1152: multi-block at SIM_BLOCKING for every activation
        # width above 3.
        seed_init(a * 10 + w)
        layers = [QuantConv2d(1, 4, 3, spec=spec, stride=2, padding=1),
                  ReLU(),
                  QuantConv2d(4, 8, 3, spec=spec, padding=1, groups=2),
                  ReLU(), Flatten(), QuantLinear(8 * 12 * 12, 3, spec=spec)]
    elif row.graph == "wide_k":
        # K = 576 spans two kc-blocks at SIM_BLOCKING.
        seed_init(21)
        layers = [QuantConv2d(64, 4, 3, spec=spec, padding=1, bias=False)]
    else:
        kernel, padding, stride, groups = row.conv
        seed_init(41 + 7 * kernel + padding + 3 * stride + groups)
        geometry = dict(stride=stride, padding=padding, groups=groups)
        layers = [QuantConv2d(4, 6, kernel, spec=spec, **geometry)
                  if row.quant else Conv2d(4, 6, kernel, **geometry)]
    model = Sequential(*layers)
    model.eval()
    return export_sequential(model, name=row.graph)


def _input(row, batch):
    rng = np.random.default_rng(batch)
    if row.graph == "demo":
        x = faults.demo_input(batch=batch)
    elif row.graph in _INPUTS:
        shape, scale = _INPUTS[row.graph]
        x = scale * rng.standard_normal((batch,) + shape)
    else:
        x = rng.standard_normal((batch, 1) + row.hw)
    if row.salt:
        # About a fifth of the pixels become -0.0.
        x[rng.random(x.shape) < 0.2] = -0.0
    return x


def _plant(graph, x, plant):
    """Plant one fault; returns the input and the node that must trip
    the fence (``None`` when nothing is planted in the data)."""
    if plant in _INPUT_PLANTS:
        x = x.copy()
        x[0, 0, x.shape[2] // 2, x.shape[3] // 2] = _INPUT_PLANTS[plant]
        return x, "input"
    labels, inputs_of = _effective_wiring(graph)
    if plant == "inf_conv":
        i, node = next((i, n) for i, n in enumerate(graph)
                       if n.op in ("quant_conv2d", "conv2d"))
        node.tensors["bias"] = np.zeros(node.tensors["weight"].shape[0])
        node.tensors["bias"][-1] = np.inf
        return x, labels[i]
    if plant == "bn_shift":
        # A -inf shift that the relu reading it would turn into 0.
        i, node = next((i, n) for i, n in enumerate(graph)
                       if n.op == "batchnorm2d" and [
                           r.op for r, eff in zip(graph, inputs_of)
                           if labels[i] in eff] == ["relu"])
        node.tensors["beta"] = node.tensors["beta"].copy()
        node.tensors["beta"][0] = -np.inf
        return x, labels[i]
    return x, None


def _stats(result):
    return [repr(s) for s in result.layer_stats]


def _ranges(trace):
    # repr makes NaN extrema comparable; adding 0.0 folds -0.0 into 0.0
    # (a float32 operand's -0.0 is the code 0, an int64 one's 0).
    return {key: (repr(r.lo + 0.0), repr(r.hi + 0.0), r.count)
            for key, r in trace.observations.items()}


def _conv_steps(plan):
    return [step for step in plan.steps if hasattr(step, "direct")]


def _lowering(plan):
    """The plan's conv steps, counted by how they lower."""
    kinds = Counter()
    for step in _conv_steps(plan):
        kinds["direct" if step.direct else
              "kernel_rows" if step.kernel_rows else "rows"] += 1
    return dict(kinds)


def _im2row(plan):
    """``plan`` with every conv step's direct lowering switched off."""
    for step in _conv_steps(plan):
        step.direct = False
    return plan


def _can_wrap(plan):
    """Whether some GEMM's worst-case sum exceeds its AccMem."""
    def magnitude(bits, signed):
        return max(map(abs, value_range(bits, signed)))
    return any(g.k * magnitude(g.config.bw_a, g.config.signed_a)
               * magnitude(g.config.bw_b, g.config.signed_b)
               >= 1 << (g.config.accmem_bits - 1)
               for step in plan.steps for g in getattr(step, "gemms", ()))


_Oracle = namedtuple("_Oracle", "ref event stats ranges wraps")
_ORACLES: dict = {}


def _oracle(row, batch):
    """The numpy and event im2row plans' runs of ``row``'s input, shared
    by the rows with the same graph, AccMem and input."""
    key = (row.graph, row.bits, row.signed, row.conv, row.quant, row.hw,
           row.accmem, row.salt, batch)
    if key not in _ORACLES:
        graph = _graph(row)
        x = _input(row, batch)
        event = _im2row(compile_graph(graph, backend="mixgemm",
                                      gemm_backend="event",
                                      accmem_bits=row.accmem))
        with observing_ranges() as trace:
            result = event.run(x)
        ref = _im2row(compile_graph(graph, backend="numpy")).run(x)
        _ORACLES[key] = _Oracle(ref.output.tobytes(),
                                result.output.tobytes(), _stats(result),
                                _ranges(trace), _can_wrap(event))
    return _ORACLES[key]


@contextmanager
def _plan_under_test(row, graph):
    """``(plan, twin)``: the row's plan and the plan it must equal run
    for run (``None`` when only the oracles apply)."""
    fast = functools.partial(compile_graph, graph, backend="mixgemm",
                             gemm_backend="fast", accmem_bits=row.accmem)
    if row.plan == "attached":
        exporter = fast()
        with export_plan(exporter) as shared, \
                attach_plan(shared.handle) as attached:
            yield attached.plan, exporter
        return
    yield {"fast": lambda: (fast(), None),
           "event": lambda: (fast(gemm_backend="event"), None),
           "numpy": lambda: (fast(backend="numpy"), None),
           "unfused": lambda: (fast(fuse=False), fast())}[row.plan]()


# -- the check ----------------------------------------------------------------


class _UnfusedEngine(InferenceEngine):
    """The engine with its plan compiled unfused: one step per node."""

    @property
    def plan(self):
        if self._plan is None:
            self._plan = _compile(
                self.graph, self.backend, self.gemm_backend,
                self.accmem_bits, self._pack_cache, fuse=False,
                guards=self._guards)
        return self._plan


def _guarded_run(engine, x):
    """Everything observable about one guarded run."""
    with observing_ranges() as trace, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = engine.run(x)
        except GuardError as exc:
            run = ("error", exc.guard, str(exc))
        else:
            run = ("ok", result.output.tobytes(), _stats(result),
                   [repr(e) for e in result.fault_events],
                   list(result.recovered_layers))
        finally:
            if engine.injector is not None:
                engine.injector.restore()
    warned = [(type(w.message).__name__, str(w.message)) for w in caught]
    return run, _ranges(trace), warned


def _check_guarded(row):
    """The engine's fused guarded plan against the unfused one."""
    fault_plan = None
    if row.plant.startswith("fault:"):
        fault_plan = faults.FaultPlan.generate(
            seed=row.seed, n_faults=1, sites=(row.plant[6:],))
    for batch in row.batches:
        sides = []
        for engine_cls in (InferenceEngine, _UnfusedEngine):
            graph = _graph(row)
            x, tripped = _plant(graph, _input(row, batch), row.plant)
            engine = engine_cls(graph, backend=row.backend,
                                guard_level=row.plan, fault_plan=fault_plan,
                                accmem_bits=row.accmem)
            outcome = _guarded_run(engine, x)
            sides.append((engine.plan, outcome))
        (fused, outcome), (unfused, unfused_outcome) = sides
        assert fused.info.fuse and not unfused.info.fuse
        assert outcome == unfused_outcome
        run, ranges, warned = outcome
        if tripped is not None:
            assert run == ("error", "finite",
                           f"non-finite values after node {tripped!r}")
        elif fault_plan is None:
            oracle = _oracle(row, batch)
            assert run[0] == "ok" and run[3] == [] and warned == []
            assert run[1] == (oracle.event if oracle.wraps else oracle.ref)
            assert run[2] == oracle.stats and ranges == oracle.ranges
            assert verify_plan(fused) == []
        elif row.plan == "full":
            # Full guards detect the planted fault and recover.
            assert run[0] == "ok" and run[3]
    unguarded = compile_graph(_graph(row), backend=row.backend)
    assert [s.label for s in fused.steps] == [s.label
                                              for s in unguarded.steps]
    assert _lowering(fused) == _declared(row)


def _check_wide_k(row, graph, plan, result, x):
    """The conv against the event engine on ``im2row`` / ``weight_matrix``
    operands built straight from :mod:`repro.nn.im2col`."""
    node = graph.nodes[0]
    act_scale, w = node.attrs["act_scale"], node.tensors["weight"]
    w_scale = weight_absmax_scale(w, 8, channel_axis=0)
    a = im2row(quantize(x, QuantParams(scale=act_scale, zero_point=0.0,
                                       bits=8, signed=False)), 3, 3,
               padding=1)
    b = weight_matrix(quantize(w, QuantParams(
        scale=w_scale, zero_point=0.0, bits=8, signed=True, axis=0)))
    gemm = MixGemm(MixGemmConfig(
        bw_a=8, bw_b=8, signed_a=False, signed_b=True,
        blocking=SIM_BLOCKING, accmem_bits=row.accmem), backend="event")
    ref = gemm.gemm(a, b)
    assert result.layer_stats[0].cycles == ref.cycles
    assert np.array_equal(result.output, rows_to_nchw(
        ref.c * (float(act_scale) * w_scale[None, :]), len(x), 5, 5))
    # Where the AccMem wraps, the wrap points depend on K order, so the
    # plan must keep im2row's -- and this input tells the orders apart.
    perm = channels_last_order(64, 3, 3)
    wrapped = not np.array_equal(gemm.gemm(a[:, perm], b[perm]).c, ref.c)
    assert wrapped == (row.accmem == 16)
    assert plan.steps[0].k_order == (K_ORDER_IM2ROW if wrapped
                                     else K_ORDER_CHANNELS_LAST)


def _check(row):
    if row.plan in _LEVELS:
        _check_guarded(row)
        return
    graph = _graph(row)
    with _plan_under_test(row, graph) as (plan, twin):
        for batch in row.batches:
            x = _input(row, batch)
            oracle = _oracle(row, batch)
            with observing_ranges() as trace:
                got = plan.run(x)
            wraps = oracle.wraps and row.plan != "numpy"
            assert got.output.tobytes() == (oracle.event if wraps
                                            else oracle.ref)
            assert oracle.event != oracle.ref or not row.wraps
            if plan.info.backend == "mixgemm":
                assert _stats(got) == oracle.stats
                assert _ranges(trace) == oracle.ranges
            if twin is not None:
                again = twin.run(x)
                assert again.output.tobytes() == got.output.tobytes()
                assert _stats(again) == _stats(got)
            if row.salt:
                # The plan's float32 operands really hold -0.0 codes.
                assert any(np.signbit(low._buf[low._buf == 0]).any()
                           for step in _conv_steps(plan)
                           for low in step._lowerings.values())
            if row.graph == "wide_k":
                _check_wide_k(row, graph, plan, got, x)
        assert all(step._lowerings for step in _conv_steps(plan))
        assert _lowering(plan) == _declared(row)
        if row.plan == "unfused":
            # The fused twin fused something; a lone conv has none to fuse.
            assert not plan.info.fusions
            assert bool(twin.info.fusions) == (row.graph != "conv")
        if row.quant:
            assert verify_plan(plan) == []


# -- the rows -----------------------------------------------------------------


def _slow_rows():
    for (a, w), signed, accmem in itertools.product(
            itertools.product(range(2, 9), repeat=2), (False, True),
            (16, 32, 64)):
        yield Row("sweep", "fast", bits=(a, w), signed=signed,
                  accmem=accmem, batches=(1,))
    for bits, accmem, plan in itertools.product(
            ((2, 8), (8, 2), (5, 5)), (16, 64),
            ("numpy", "unfused", "attached")):
        yield Row("sweep", plan, bits=bits, signed=False, accmem=accmem,
                  batches=(1,))
    for kernel, padding in itertools.product((3, 5), (0, 1, 2)):
        conv = (kernel, padding, 1, 1)
        for bits, signed in itertools.product(_BITS, (True, False)):
            yield Row("conv", "fast", {"kernel_rows": 1}, bits=bits,
                      signed=signed, conv=conv, batches=(1, 3, 32))
        for plan in ("numpy", "unfused", "attached"):
            yield Row("conv", plan,
                      {"rows" if plan == "numpy" else "kernel_rows": 1},
                      conv=conv, batches=(1, 3, 32))
        yield Row("conv", "fast", {"rows": 1}, quant=False, conv=conv,
                  batches=(1, 3, 32))
    yield Row("conv", "fast", {"rows": 1}, conv=(3, 1, 1, 2),
              batches=(1, 3, 32))
    for stride in (1, 2, 3):
        for bits, accmem in itertools.product(_BITS, (64, 16)):
            yield Row("conv", "fast", {"direct": 1}, bits=bits,
                      accmem=accmem, conv=(1, 0, stride, 1),
                      batches=(1, 3, 32))
        for plan in ("event", "numpy", "unfused", "attached"):
            yield Row("conv", plan, {"direct": 1}, conv=(1, 0, stride, 1))
    for name, level in itertools.product(_NETS, _LEVELS):
        # alexnet and vgg16 have no batchnorm for bn_shift to plant in.
        for plant in ("", "nan_input", "inf_conv", "bn_shift")[
                :3 if name in ("alexnet", "vgg16") else 4]:
            yield Row(name, level, batches=(2,), plant=plant)
    for name, site in itertools.product(_NETS, faults.FAULT_SITES):
        yield Row(name, "full", batches=(1,), plant=f"fault:{site}")
    # Batch 2 shares the guarded rows' oracle runs.
    for name, plan in itertools.product(_NETS,
                                        ("fast", "unfused", "attached")):
        yield Row(name, plan, batches=(1, 2))
    for name, plan in itertools.product(_NETS[2:], ("fast", "unfused")):
        yield Row(name, plan, hw=(13, 11), batches=(3,))


_TIER1 = [
    # The sweep graph: multi-block GEMMs, a grouped conv, a linear.
    Row("sweep", "attached", signed=False, batches=(1,)),
    Row("sweep", "unfused", signed=False, accmem=16, batches=(1,),
        wraps=True),
    Row("sweep", "event", bits=(3, 7), accmem=32, batches=(1,)),
    # The wide-K conv against its independent oracle.
    *(Row("wide_k", "fast", {"rows": 1}, signed=False, accmem=accmem,
          batches=(1,)) for accmem in (64, 16)),
    # Kernel rows, and every 3x3 conv that must not take them.
    *(Row("conv", "fast", {"kernel_rows": 1}, bits=bits, signed=signed,
          conv=(k, p, 1, 1)) for k, p, bits, signed in (
              (3, 1, (8, 8), True), (5, 2, (4, 4), False),
              (3, 0, (2, 2), True))),
    Row("conv", "fast", {"rows": 1}, conv=(3, 1, 2, 1)),
    Row("conv", "fast", {"rows": 1}, conv=(3, 1, 1, 2)),
    Row("conv", "fast", {"rows": 1}, accmem=16),
    Row("conv", "fast", {"rows": 1}, quant=False),
    Row("conv", "event", {"rows": 1}),
    Row("conv", "numpy", {"rows": 1}),
    Row("conv", "standard", {"rows": 1}, batches=(2,)),
    Row("conv", "light", {"kernel_rows": 1}, batches=(2,)),
    # Direct 1x1 convs, quantized, float and guarded, and the 1x1 convs
    # that must keep a lowering copy.
    *(Row("conv", "fast", {"direct": 1}, bits=bits, accmem=accmem,
          conv=(1, 0, s, 1)) for s, bits, accmem in (
              (1, (8, 8), 64), (2, (4, 4), 16), (3, (2, 2), 64))),
    *(Row("conv", "fast", {"direct": 1}, quant=False, conv=(1, 0, s, 1))
      for s in (1, 2, 3)),
    *(Row("conv", "full", {"direct": 1}, conv=(1, 0, s, 1), batches=(2,))
      for s in (1, 2)),
    *(Row("conv", plan, {"kernel_rows" if plan == "fast" else "rows": 1},
          conv=(1, 1, 1, 1)) for plan in ("fast", "numpy")),
    *(Row("conv", plan, {"rows": 1}, conv=(1, 0, 1, 2))
      for plan in ("fast", "numpy")),
    # Tiny nets: residual adds, folds, fusions, grouped convs, -0.0.
    Row("resnet18", "fast", salt=True),
    Row("resnet18", "unfused", salt=True),
    Row("mobilenet_v1", "fast", hw=(8, 8)),
    Row("efficientnet_b0", "fast", hw=(8, 8)),
    # Guards on the demo graph: clean, planted and fault-plan runs.
    *(Row("demo", level, batches=(2,), plant=plant)
      for level in _LEVELS for plant in ("", "inf_conv")),
    *(Row("demo", level, batches=(2,), plant=plant, backend=backend)
      for level in _LEVELS for backend in ("numpy", "mixgemm")
      for plant in _INPUT_PLANTS),
    *(Row("demo", level, batches=(2,), plant=f"fault:{site}", seed=5)
      for level in ("light", "full") for site in faults.FAULT_SITES),
    # ... and on resnet18.
    *(Row("resnet18", level, batches=(1,), plant="bn_shift")
      for level in _LEVELS),
    *(Row("resnet18", "light", batches=(1,), plant=plant)
      for plant in ("", "nan_input", "inf_conv")),
    Row("resnet18", "full", batches=(1,), plant="fault:accmem", seed=3),
]


@pytest.mark.parametrize("row", _TIER1 + [
    pytest.param(row, marks=pytest.mark.slow) for row in _slow_rows()],
    ids=_row_id)
def test_plan_matrix(row):
    _check(row)
