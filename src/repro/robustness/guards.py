"""Runtime integrity guards: checksums, range checks, NaN/Inf fences.

The reliability model is layered (cheapest first):

* **finite guards** -- every inter-node tensor is checked for NaN/Inf,
  catching float-domain corruption (e.g. an exponent-bit flip in a
  shipped weight) the integer pipeline would otherwise propagate;
* **pack checksums** -- an FNV-1a digest over the packed u-vector words,
  computed at pack time and verified immediately before the u-kernel
  consumes them, so storage corruption between packing and compute is
  detected before it reaches the datapath;
* **range guards** -- the accumulated C of a ``k``-deep GEMM over
  ``bw_a``/``bw_b``-bit operands is algebraically bounded by
  ``k * max|a| * max|b|``; any value outside that bound proves an
  accumulator fault;
* **weight vault** -- a CRC32 per shipped tensor taken when the engine
  binds the graph, verified before each quantized layer consumes its
  weights; at the strictest level the vault keeps a golden replica
  (modelling ECC scrubbing) so a corrupted tensor is restored in place.

Everything sits behind the engine-level ``guard_level`` knob:

====== ========================================================
off     no checks (the seed repo's behaviour)
light   finite guards between graph nodes
standard light + pack checksums + range guards + weight vault
full    standard + per-layer shadow verification with recovery
====== ========================================================

Use :func:`measure_guard_overhead` to quantify what each level costs on
a given model.
"""

from __future__ import annotations

import itertools
import time
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.binseg import worst_case_inner_product
from repro.core.config import MixGemmConfig
from repro.core.packing import PackedMatrix

from .errors import GuardError

#: Ordered guard levels; each includes everything before it.
GUARD_LEVELS = ("off", "light", "standard", "full")

_WORD_MASK = 0xFFFFFFFFFFFFFFFF
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def guard_rank(level: str) -> int:
    """Numeric strictness of a guard level (0 = off)."""
    if level not in GUARD_LEVELS:
        raise GuardError(
            f"unknown guard level {level!r}; choose from {GUARD_LEVELS}",
            guard="config",
        )
    return GUARD_LEVELS.index(level)


# ---------------------------------------------------------------------------
# Pack-time checksums
# ---------------------------------------------------------------------------


def checksum_words(words) -> int:
    """64-bit FNV-1a over a sequence of u-vector words.

    Any single bit flip in any word changes the digest, which is all the
    guard needs (this is an error-*detection* code, not authentication).
    """
    h = _FNV_OFFSET
    for w in words:
        h ^= w & _WORD_MASK
        h = (h * _FNV_PRIME) & _WORD_MASK
    return h


def packed_checksum(packed: PackedMatrix) -> int:
    """Digest of every word of a packed operand, k-run order."""
    return checksum_words(
        itertools.chain.from_iterable(kv.words for kv in packed.kvectors))


def accumulator_bound(k: int, config: MixGemmConfig) -> int:
    """Largest |C| value a k-deep inner product can legally produce."""
    return worst_case_inner_product(k, config.bw_a, config.bw_b,
                                    signed_a=config.signed_a,
                                    signed_b=config.signed_b)


class PackGuard:
    """Checksum + range guard bundle one :class:`MixGemm` instance uses.

    Duck-typed against ``core.gemm`` (the core layer never imports the
    robustness package): ``checksum`` at pack time, ``verify`` before
    consumption, ``check_result`` on the accumulated C.
    """

    def __init__(self, config: MixGemmConfig) -> None:
        self.config = config

    def checksum(self, packed: PackedMatrix) -> int:
        return packed_checksum(packed)

    def verify(self, packed: PackedMatrix, expected: int,
               operand: str) -> None:
        actual = packed_checksum(packed)
        if actual != expected:
            raise GuardError(
                f"u-vector checksum mismatch on operand {operand}: "
                f"stored words no longer match their pack-time digest "
                f"({actual:#018x} != {expected:#018x})",
                guard="checksum",
            )

    def check_result(self, c: np.ndarray, k: int) -> None:
        bound = accumulator_bound(k, self.config)
        worst = int(np.abs(c).max()) if c.size else 0
        if worst > bound:
            raise GuardError(
                f"accumulator range guard: |C| reaches {worst} but a "
                f"{k}-deep {self.config.name} inner product is bounded "
                f"by {bound}",
                guard="range",
            )


# ---------------------------------------------------------------------------
# Graph-level guards
# ---------------------------------------------------------------------------


def static_precheck(graph, *, accmem_bits: Optional[int] = None,
                    blocking=None) -> None:
    """Contract-check a graph before a fault-injection run touches it.

    Injecting faults into a model that already violates its static
    contracts (accumulator overflow, broken wiring, bad quantization
    metadata) produces meaningless campaign data, so the engine and
    ``repro faultsim`` call this first.  Raises :class:`GuardError`
    (``guard="static"``) naming the first error-severity diagnostic.
    """
    # Imported lazily: analysis -> runtime.engine -> guards would
    # otherwise be a cycle at import time.
    from repro.analysis import check_graph
    from repro.core.config import DEFAULT_ACCMEM_BITS

    if accmem_bits is None:
        accmem_bits = DEFAULT_ACCMEM_BITS
    report = check_graph(graph, accmem_bits=accmem_bits,
                         blocking=blocking)
    errors = report.errors
    if errors:
        first = errors[0]
        raise GuardError(
            f"static precheck failed ({len(errors)} error(s)); first: "
            f"[{first.rule}] node {first.node or '?'}: {first.message}",
            guard="static",
        )


def check_finite(label: str, arr: np.ndarray) -> None:
    """NaN/Inf fence between graph nodes.

    One sum decides the common case: a NaN or an infinity makes the sum
    non-finite, so a finite sum proves every element finite.  Only a
    non-finite sum -- a bad element, or finite values whose sum
    overflows -- pays for the exact element-wise scan.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(arr, axis=None)
    if np.isfinite(total):
        return
    if not np.isfinite(arr).all():
        raise GuardError(
            f"non-finite values after node {label!r}",
            guard="finite",
        )


def _tensor_crc(arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).tobytes())


@dataclass
class _VaultEntry:
    crc: int
    replica: np.ndarray


class TensorVault:
    """Checksums (and golden replicas) of every tensor shipped in a graph.

    Snapshot once when the engine binds the graph; verify each quantized
    node's tensors right before consumption.  On mismatch the tensor is
    restored in place from the replica -- the software analogue of ECC
    scrubbing -- and the caller is told which tensors were repaired.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, str], _VaultEntry] = {}

    @classmethod
    def snapshot(cls, graph) -> "TensorVault":
        vault = cls()
        for i, node in enumerate(graph):
            for name, tensor in node.tensors.items():
                vault._entries[(i, name)] = _VaultEntry(
                    crc=_tensor_crc(tensor), replica=tensor.copy(),
                )
        return vault

    def verify_and_restore(self, index: int, node) -> list[str]:
        """Check node ``index``'s tensors; repair and report any damage."""
        restored = []
        for name, tensor in node.tensors.items():
            entry = self._entries.get((index, name))
            if entry is None:
                continue
            if _tensor_crc(tensor) != entry.crc:
                tensor[...] = entry.replica
                restored.append(name)
        return restored


# ---------------------------------------------------------------------------
# Overhead measurement
# ---------------------------------------------------------------------------


def measure_guard_overhead(graph, x, *, backend: str = "mixgemm",
                           levels=GUARD_LEVELS,
                           repeats: int = 3) -> dict[str, float]:
    """Wall-clock seconds per inference at each guard level.

    Returns ``{level: best-of-repeats seconds}``; divide by the ``"off"``
    entry for the relative overhead the docs quote.
    """
    from repro.runtime.engine import InferenceEngine

    timings: dict[str, float] = {}
    for level in levels:
        engine = InferenceEngine(graph, backend=backend, guard_level=level)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            engine.run(x)
            best = min(best, time.perf_counter() - t0)
        timings[level] = best
    return timings
