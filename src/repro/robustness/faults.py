"""Seeded, deterministic fault injection for the Mix-GEMM stack.

The fault model is the classic edge-reliability triple:

* **u-vector faults** (``uvector_a`` / ``uvector_b``) -- a bit flip in a
  packed operand word *after* packing and *before* the u-kernel consumes
  it, modelling soft errors in the compressed operand storage;
* **AccMem faults** (``accmem``) -- a bit flip in one accumulator slot
  mid-GEMM, modelling a particle strike in the micro-engine's AccMem;
* **weight faults** (``weight``) -- a high-order bit flip in a shipped
  float64 weight tensor, modelling persistent corruption of the
  deployed model file.

Faults are *transient for one firing*: each :class:`FaultSpec` fires
exactly once, so a retry after detection observes clean data -- except
weight faults, which persist in the graph until
:meth:`FaultInjector.restore` puts the original bytes back.

Everything is derived deterministically from a seed: the same
:class:`FaultPlan` replayed against the same model and input produces
the same flips, the same detections and the same recoveries, which is
what lets ``repro faultsim`` state reliability rates reproducibly.

:class:`FaultCampaign` orchestrates many single-fault trials and scores
them against the clean numpy reference output: a trial is *detected*
when any guard fired (or the run raised), *corrupted* when the final
output differs from the reference, *silent* when corrupted but not
detected, and *recovered* when a detected fault still ended in the
bit-exact reference output.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from repro.core.errors import ReproError
from repro.core.packing import PackedMatrix

from .errors import FaultPlanError, ReliabilityWarning

#: Injection sites, in the order campaigns cycle through them.
FAULT_SITES = ("uvector_a", "uvector_b", "accmem", "weight")

#: AccMem faults fire when the running group counter hits
#: ``index % _ACCMEM_FIRE_WINDOW`` -- early in the GEMM, so every
#: realistically-sized layer offers the opportunity.
_ACCMEM_FIRE_WINDOW = 8

#: AccMem bit flips stay within the low 40 bits: high enough to escape
#: the range guard sometimes, low enough to model realistic accumulator
#: upsets (the paper's AccMem slots are 64-bit).
_ACCMEM_BIT_SPAN = 40

#: Weight faults flip one of the 16 most significant float64 bits
#: (sign / exponent / top mantissa), so the corruption is visible after
#: quantization instead of vanishing in rounding.
_WEIGHT_BIT_BASE = 48

_QUANT_OPS = ("quant_conv2d", "quant_linear")


def _payload_words(kv) -> list[tuple[int, int]]:
    """(word index, payload bits) for every word holding logical elements.

    Mirrors :meth:`repro.core.packing.KVector.unpack`: elements fill each
    group's words front to back, so the tail words of a short group are
    pure padding.
    """
    epw = kv.elems_per_word
    out = []
    for g in range(kv.n_groups):
        remaining = kv.elements_in_group(g)
        for w in range(kv.ku):
            if remaining <= 0:
                break
            take = min(remaining, epw)
            out.append((g * kv.ku + w, take * kv.bw))
            remaining -= take
    return out


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic bit flip.

    ``index`` and ``bit`` are raw entropy; each site maps them onto its
    own geometry (k-run/word, slot/group, element) modulo the target
    size, so a spec stays valid for any model.  ``layer`` restricts the
    fault to one quantized-GEMM call (``None`` = first opportunity).
    """

    site: str
    index: int
    bit: int
    layer: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise FaultPlanError(
                f"unknown fault site {self.site!r}; choose from "
                f"{FAULT_SITES}"
            )
        if self.index < 0 or self.bit < 0:
            raise FaultPlanError("index and bit must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seed-derived list of faults to inject."""

    faults: tuple[FaultSpec, ...]
    seed: Optional[int] = None

    @classmethod
    def generate(
        cls,
        seed: int,
        n_faults: int = 1,
        sites: Sequence[str] = FAULT_SITES,
        layers: Optional[Sequence[int]] = None,
    ) -> "FaultPlan":
        """Draw ``n_faults`` specs deterministically from ``seed``."""
        if n_faults < 1:
            raise FaultPlanError("n_faults must be at least 1")
        if not sites:
            raise FaultPlanError("sites cannot be empty")
        rng = np.random.default_rng(seed)
        faults = []
        for i in range(n_faults):
            layer = None if layers is None else int(rng.choice(layers))
            faults.append(FaultSpec(
                site=sites[i % len(sites)],
                index=int(rng.integers(0, 1 << 16)),
                bit=int(rng.integers(0, 1 << 16)),
                layer=layer,
            ))
        return cls(faults=tuple(faults), seed=seed)


@dataclass(frozen=True)
class InjectedFault:
    """Record of one fault that actually fired."""

    spec: FaultSpec
    layer: Optional[int]
    description: str


class FaultInjector:
    """Stateful executor of a :class:`FaultPlan`.

    Duck-typed against the core layer's hooks: ``on_pack`` is called by
    :class:`~repro.core.gemm.MixGemm` after each operand is compressed,
    ``on_accumulate`` by :class:`~repro.core.microengine.MicroEngine`
    after each accumulation group.  ``corrupt_weights`` is applied by the
    inference engine at the start of a run.  Each spec fires once; the
    ``injected`` list records what happened for campaign scoring.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.layer: Optional[int] = None
        self.injected: list[InjectedFault] = []
        self._pending = list(plan.faults)
        self._weight_backups: list[tuple[np.ndarray, np.ndarray]] = []

    # -- bookkeeping ---------------------------------------------------------

    def begin_layer(self, layer: int) -> None:
        """The engine announces which quantized-GEMM call is next."""
        self.layer = layer

    @property
    def exhausted(self) -> bool:
        return not self._pending

    def _take(self, sites: tuple[str, ...]) -> list[FaultSpec]:
        hits = [
            s for s in self._pending
            if s.site in sites and (s.layer is None or s.layer == self.layer)
        ]
        for s in hits:
            self._pending.remove(s)
        return hits

    def _record(self, spec: FaultSpec, description: str) -> None:
        self.injected.append(InjectedFault(
            spec=spec, layer=self.layer, description=description,
        ))

    # -- core hooks ----------------------------------------------------------

    def on_pack(self, operand: str, packed: PackedMatrix) -> PackedMatrix:
        """Flip bits in the freshly packed operand (storage corruption)."""
        site = "uvector_a" if operand == "A" else "uvector_b"
        for spec in self._take((site,)):
            packed = self._flip_packed(packed, spec, operand)
        return packed

    def _flip_packed(self, packed: PackedMatrix, spec: FaultSpec,
                     operand: str) -> PackedMatrix:
        run_idx = spec.index % packed.n_runs
        kv = packed.kvectors[run_idx]
        # Target words (and bit fields) that carry logical elements:
        # flips in pure-padding words are architecturally masked and
        # teach a campaign nothing.
        payload = _payload_words(kv)
        word_idx, field_bits = payload[
            (spec.index // max(1, packed.n_runs)) % len(payload)]
        bit = spec.bit % field_bits
        words = list(kv.words)
        words[word_idx] ^= 1 << bit
        kvectors = list(packed.kvectors)
        kvectors[run_idx] = replace(kv, words=tuple(words))
        self._record(spec, (
            f"flipped bit {bit} of u-vector word {word_idx} in k-run "
            f"{run_idx} of operand {operand}"
        ))
        return replace(packed, kvectors=tuple(kvectors))

    def on_accumulate(self, accmem: list[int], group_index: int) -> None:
        """Flip a bit in one AccMem slot when its trigger group passes."""
        for spec in list(self._pending):
            if spec.site != "accmem":
                continue
            if spec.layer is not None and spec.layer != self.layer:
                continue
            if group_index != spec.index % _ACCMEM_FIRE_WINDOW:
                continue
            self._pending.remove(spec)
            slot = (spec.index // _ACCMEM_FIRE_WINDOW) % len(accmem)
            bit = spec.bit % _ACCMEM_BIT_SPAN
            accmem[slot] ^= 1 << bit
            self._record(spec, (
                f"flipped bit {bit} of AccMem slot {slot} after "
                f"accumulation group {group_index}"
            ))

    # -- graph-level faults ---------------------------------------------------

    def corrupt_weights(self, graph) -> None:
        """Flip high-order bits in shipped weight tensors (persistent)."""
        quant_nodes = [
            (i, n) for i, n in enumerate(graph)
            if n.op in _QUANT_OPS and "weight" in n.tensors
        ]
        if not quant_nodes:
            return
        for spec in self._take(("weight",)):
            pos = (spec.index if spec.layer is None else spec.layer)
            node_index, node = quant_nodes[pos % len(quant_nodes)]
            tensor = node.tensors["weight"]
            flat_index = spec.index % tensor.size
            bit = _WEIGHT_BIT_BASE + spec.bit % (64 - _WEIGHT_BIT_BASE)
            self._weight_backups.append((tensor, tensor.copy()))
            bits = tensor.view(np.uint64)
            multi = np.unravel_index(flat_index, tensor.shape)
            bits[multi] ^= np.uint64(1) << np.uint64(bit)
            self._record(spec, (
                f"flipped float64 bit {bit} of weight element "
                f"{flat_index} in node {node_index} ({node.op})"
            ))

    def restore(self) -> None:
        """Undo every persistent (weight) corruption this injector made."""
        for tensor, backup in self._weight_backups:
            tensor[...] = backup
        self._weight_backups.clear()


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one single-fault inference trial."""

    spec: FaultSpec
    injected: bool
    detected: bool
    corrupted: bool
    failed: bool = False
    error: str = ""

    @property
    def silent(self) -> bool:
        """Output corrupted and nothing noticed -- the dangerous case."""
        return self.injected and self.corrupted and not self.detected

    @property
    def recovered(self) -> bool:
        """Fault injected, noticed, and the output still bit-exact."""
        return (self.injected and self.detected
                and not self.corrupted and not self.failed)


@dataclass
class CampaignReport:
    """Aggregate scores of a fault-injection campaign."""

    guard_level: str
    seed: int
    trials: list[TrialResult] = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def n_injected(self) -> int:
        return sum(t.injected for t in self.trials)

    @property
    def n_detected(self) -> int:
        return sum(t.injected and t.detected for t in self.trials)

    @property
    def n_recovered(self) -> int:
        return sum(t.recovered for t in self.trials)

    @property
    def n_silent(self) -> int:
        return sum(t.silent for t in self.trials)

    def _rate(self, count: int) -> float:
        return count / self.n_injected if self.n_injected else 0.0

    @property
    def detection_rate(self) -> float:
        return self._rate(self.n_detected)

    @property
    def recovery_rate(self) -> float:
        return self._rate(self.n_recovered)

    @property
    def silent_rate(self) -> float:
        return self._rate(self.n_silent)

    def by_site(self) -> dict[str, tuple[int, int, int]]:
        """Per-site (injected, detected, silent) counts."""
        out: dict[str, tuple[int, int, int]] = {}
        for site in FAULT_SITES:
            hits = [t for t in self.trials
                    if t.spec.site == site and t.injected]
            out[site] = (
                len(hits),
                sum(t.detected for t in hits),
                sum(t.silent for t in hits),
            )
        return out

    def render(self) -> str:
        lines = [
            f"guard_level={self.guard_level}: "
            f"{self.n_injected}/{self.n_trials} faults injected, "
            f"{self.n_detected} detected, {self.n_recovered} recovered, "
            f"{self.n_silent} silent corruptions",
            f"  detection {self.detection_rate:6.1%}   "
            f"recovery {self.recovery_rate:6.1%}   "
            f"silent {self.silent_rate:6.1%}",
        ]
        for site, (inj, det, silent) in self.by_site().items():
            if inj:
                lines.append(f"  {site:10s} injected={inj:2d} "
                             f"detected={det:2d} silent={silent:2d}")
        return "\n".join(lines)


def demo_graph(act_bits: int = 6, weight_bits: int = 4, seed: int = 11):
    """A small quantized CNN exported to the deployment IR.

    Shared by ``repro faultsim`` and the robustness tests: big enough
    that every fault site has real opportunities (hundreds of
    accumulation groups, multi-layer), small enough that dozens of
    simulated trials finish in seconds.
    """
    from repro.nn.layers import (
        Flatten,
        LayerQuantSpec,
        QuantConv2d,
        QuantLinear,
        ReLU,
        Sequential,
        seed_init,
    )
    from repro.runtime.graph import export_sequential

    seed_init(seed)
    spec_in = LayerQuantSpec(act_bits=act_bits, weight_bits=weight_bits,
                             act_signed=True)
    spec = LayerQuantSpec(act_bits=act_bits, weight_bits=weight_bits)
    # Flatten (not average pooling) ahead of the classifier: global
    # pooling divides a single-pixel corruption by the spatial area,
    # which quantization then rounds away -- realistic masking, but it
    # would hide exactly the silent corruption a campaign measures.
    model = Sequential(
        QuantConv2d(1, 4, 3, spec=spec_in, padding=1),
        ReLU(),
        QuantConv2d(4, 4, 3, spec=spec, padding=1),
        ReLU(),
        Flatten(),
        QuantLinear(4 * 6 * 6, 3, spec=spec),
    )
    model.eval()
    return export_sequential(model, name="faultsim-demo")


def demo_input(batch: int = 2, size: int = 6, seed: int = 0) -> np.ndarray:
    """Deterministic input batch matching :func:`demo_graph`."""
    return np.random.default_rng(seed).normal(size=(batch, 1, size, size))


class FaultCampaign:
    """Run many seeded single-fault trials and score the guard stack.

    Each trial builds a fresh engine over the same graph, injects one
    fault, and compares the final output against the clean numpy
    reference.  Weight corruption is rolled back after every trial so
    trials stay independent.
    """

    def __init__(self, graph=None, x: Optional[np.ndarray] = None, *,
                 seed: int = 0, n_trials: int = 24,
                 sites: Sequence[str] = FAULT_SITES) -> None:
        self.graph = demo_graph() if graph is None else graph
        self.x = demo_input() if x is None else x
        self.seed = seed
        if n_trials < 1:
            raise FaultPlanError("n_trials must be at least 1")
        rng = np.random.default_rng(seed)
        self.specs = [
            FaultSpec(
                site=sites[i % len(sites)],
                index=int(rng.integers(0, 1 << 16)),
                bit=int(rng.integers(0, 1 << 16)),
            )
            for i in range(n_trials)
        ]

    def run(self, guard_level: str = "full") -> CampaignReport:
        from repro.runtime.engine import InferenceEngine, SIM_BLOCKING

        from .guards import static_precheck

        # Fail the whole campaign up front (with the offending
        # diagnostic) instead of once per trial inside the engine.
        static_precheck(self.graph, blocking=SIM_BLOCKING)
        reference = InferenceEngine(
            self.graph, backend="numpy").run(self.x).output
        report = CampaignReport(guard_level=guard_level, seed=self.seed)
        for spec in self.specs:
            report.trials.append(
                self._trial(spec, guard_level, reference))
        return report

    def _trial(self, spec: FaultSpec, guard_level: str,
               reference: np.ndarray) -> TrialResult:
        from repro.runtime.engine import InferenceEngine

        plan = FaultPlan(faults=(spec,), seed=self.seed)
        engine = InferenceEngine(
            self.graph, backend="mixgemm",
            guard_level=guard_level, fault_plan=plan,
        )
        detected = False
        corrupted = False
        failed = False
        error = ""
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ReliabilityWarning)
                result = engine.run(self.x)
            detected = bool(result.fault_events)
            corrupted = not np.array_equal(result.output, reference)
        except ReproError as exc:
            # The run died loudly -- corruption, but not *silent*.
            detected = True
            corrupted = True
            failed = True
            error = str(exc)
        finally:
            engine.injector.restore()
        return TrialResult(
            spec=spec,
            injected=bool(engine.injector.injected),
            detected=detected,
            corrupted=corrupted,
            failed=failed,
            error=error,
        )
