"""Calibration of the closed-form tile model against engine probes.

The analytic model (:mod:`.model`) pins the steady-state slope of the
per-tile cycle law ``cpu_cycles(g) = S * g + K`` exactly -- ``S =
max(issue, execute)`` follows from the micro-kernel structure -- but
two small quantities are *observed*, not derived:

* the pipeline fill/drain intercept ``K`` (how the first group's
  staging overlaps the engine warming up), and
* the split of the stall total between the two PMU stall counters
  (buffer-full vs. ``bs.get``): the total is forced by the identity
  ``cpu = issue + collect + stalls``, but which counter absorbs a
  stall cycle depends on where in the pipeline the backpressure
  surfaces, and that split only becomes affine after a few groups.

Calibration therefore runs the instrumented engine
(:func:`repro.core.fastpath._tile_timing_engine`) on a handful of
small probe group counts, fits ``K`` and the stall split, then
*verifies* the fit on disjoint holdout group counts.  Only a
calibration whose holdouts reproduce the engine bit for bit is marked
``exact`` -- the flag that gates substituting the model for the engine
in the fast path's timing oracle.

Fitted calibrations persist in an atomic content-keyed cache
(:class:`CostCache`): entries are keyed by the digest of the ISA
cost table plus the tile signature, writes publish via ``os.replace``
(REP012), and corrupt / version-skewed / digest-mismatched entries are
reported once as a structured
:class:`~repro.robustness.errors.ReliabilityWarning` and ignored --
cache damage degrades to recalibration, never to a crash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.config import MixGemmConfig
from repro.core.fastpath import MicroKernelTiming, _tile_timing_engine
from repro.core.isa import BS_GET_COST, ISA_COST_TABLE, KernelCosts
from repro.robustness.errors import ReliabilityWarning

from .model import (
    tile_engine_cycles,
    tile_issue_cycles,
    tile_slope,
)

#: Version of the on-disk calibration schema.  Bump on any layout
#: change; readers skip (with a warning) entries written by a
#: different version instead of guessing at their meaning.
COST_SCHEMA_VERSION = 1

#: Environment variable naming an alternative calibration-cache dir.
COST_CACHE_ENV = "REPRO_COST_CACHE"

#: Group counts the engine is probed at during calibration.  Small on
#: purpose: the probes dominate calibration cost, and the law is
#: affine from g=1, so a short prefix pins the fit.
PROBE_GROUPS = (1, 2, 3, 4, 5, 6)

#: Disjoint group counts the fitted model must reproduce exactly for
#: the calibration to earn ``exact=True``.  33 is far outside the
#: probe range so a stall-split transition past the probes is caught.
HOLDOUT_GROUPS = (8, 12, 33)


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_COST_CACHE`` or ``~/.cache/repro/cost``."""
    env = os.environ.get(COST_CACHE_ENV, "").strip()
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro" / "cost"


def _digest(fields: dict) -> str:
    payload = json.dumps(fields, sort_keys=True,
                         separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()[:20]


def cost_table_digest(costs: Optional[KernelCosts] = None) -> str:
    """Content hash of everything the model's constants derive from.

    Covers the :class:`~repro.core.isa.KernelCosts` fields and the
    bs.* issue-cost table; any edit to either changes the digest, so a
    persisted calibration silently stops matching and recalibration
    happens on the next lookup.
    """
    if costs is None:
        costs = KernelCosts()
    return _digest({
        "kernel_costs": dataclasses.asdict(costs),
        "isa_cost_table": dict(ISA_COST_TABLE),
    })


def tile_signature(config: MixGemmConfig) -> dict:
    """Everything the per-tile timing depends on, as a plain dict.

    Deliberately excludes the cache blocking (mc/nc/kc), the AccMem
    width and the backend: the micro-kernel times one register tile of
    ``g`` full groups, so only the operand formats, the u-vector
    geometry, the engine datapath shape and the register blocking
    matter.  Configs differing only in excluded axes share one
    calibration.
    """
    lay = config.layout
    blk = config.blocking
    return {
        "bw_a": config.bw_a, "bw_b": config.bw_b,
        "signed_a": config.signed_a, "signed_b": config.signed_b,
        "word_bits": config.word_bits, "mul_width": config.mul_width,
        "source_buffer_depth": config.source_buffer_depth,
        "kua": lay.kua, "kub": lay.kub,
        "mr": blk.mr, "nr": blk.nr,
    }


@dataclass(frozen=True)
class TileCalibration:
    """One fitted per-tile timing law, self-describing and persistable.

    ``slope``/``intercept`` give ``cpu_cycles(g)``;
    ``buffer_slope``/``buffer_intercept`` give the buffer-full stall
    share in the extrapolated regime (probed group counts replay their
    observed values exactly); the ``bs.get`` stall share is forced by
    the cycle identity.  ``exact`` records whether every holdout probe
    reproduced the engine bit for bit -- only then may the fast path
    substitute :meth:`timing` for an engine run.
    """

    signature: tuple[tuple[str, object], ...]
    cost_digest: str
    slope: int
    intercept: int
    issue_cycles: int
    engine_cycles: int
    tile_cells: int
    ku_iters: int
    group_elements: int
    probes: tuple[tuple[int, int, int], ...]   # (g, cpu, buffer_full)
    buffer_slope: int
    buffer_intercept: int
    exact: bool

    def signature_dict(self) -> dict:
        return dict(self.signature)

    def timing(self, n_groups: int) -> MicroKernelTiming:
        """Predicted per-tile deltas for a ``n_groups``-group tile."""
        g = n_groups
        cpu = self.slope * g + self.intercept
        buffer_full = None
        for pg, pcpu, pbuf in self.probes:
            if pg == g:
                cpu, buffer_full = pcpu, pbuf
                break
        if buffer_full is None:
            buffer_full = max(0, self.buffer_slope * g
                              + self.buffer_intercept)
        collect = self.tile_cells * BS_GET_COST
        get_stall = max(0, cpu - self.issue_cycles * g - collect
                        - buffer_full)
        return MicroKernelTiming(
            cpu_cycles=cpu,
            buffer_full_stall_cycles=buffer_full,
            get_stall_cycles=get_stall,
            engine_busy_cycles=self.engine_cycles * g,
            groups=self.tile_cells * g,
            macs=self.tile_cells * g * self.group_elements,
            ip_instructions=self.tile_cells * g * self.ku_iters,
            get_instructions=self.tile_cells,
        )

    def as_dict(self) -> dict:
        return {
            "schema": COST_SCHEMA_VERSION,
            "cost_digest": self.cost_digest,
            "signature": self.signature_dict(),
            "slope": self.slope,
            "intercept": self.intercept,
            "issue_cycles": self.issue_cycles,
            "engine_cycles": self.engine_cycles,
            "tile_cells": self.tile_cells,
            "ku_iters": self.ku_iters,
            "group_elements": self.group_elements,
            "probes": [list(p) for p in self.probes],
            "buffer_slope": self.buffer_slope,
            "buffer_intercept": self.buffer_intercept,
            "exact": self.exact,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TileCalibration":
        schema = payload.get("schema")
        if schema != COST_SCHEMA_VERSION:
            raise ValueError(
                f"schema {schema!r} != supported {COST_SCHEMA_VERSION}")
        probes = tuple(
            (int(g), int(cpu), int(buf))
            for g, cpu, buf in payload["probes"])
        signature = tuple(sorted(payload["signature"].items()))
        return cls(
            signature=signature,
            cost_digest=str(payload["cost_digest"]),
            slope=int(payload["slope"]),
            intercept=int(payload["intercept"]),
            issue_cycles=int(payload["issue_cycles"]),
            engine_cycles=int(payload["engine_cycles"]),
            tile_cells=int(payload["tile_cells"]),
            ku_iters=int(payload["ku_iters"]),
            group_elements=int(payload["group_elements"]),
            probes=probes,
            buffer_slope=int(payload["buffer_slope"]),
            buffer_intercept=int(payload["buffer_intercept"]),
            exact=bool(payload["exact"]),
        )


def calibrate_tile(config: MixGemmConfig,
                   costs: Optional[KernelCosts] = None,
                   ) -> TileCalibration:
    """Probe the engine, fit the affine law, verify on holdouts.

    The slope is taken from the analytic model first; if the probes
    contradict it (which would mean the micro-kernel structure drifted
    from what :mod:`.model` encodes) the slope is re-fitted from the
    last two probes and the calibration cannot be ``exact`` -- that is
    precisely the situation COST-MODEL-DRIFT reports.
    """
    if costs is None:
        costs = KernelCosts()
    lay = config.layout
    blk = config.blocking
    probe_config = dataclasses.replace(config, backend="event")

    observed = {g: _tile_timing_engine(probe_config, costs, g)
                for g in PROBE_GROUPS}
    slope = tile_slope(config, costs)
    intercept = observed[PROBE_GROUPS[0]].cpu_cycles - slope
    affine = all(t.cpu_cycles == slope * g + intercept
                 for g, t in observed.items())
    if not affine:
        g_hi, g_lo = PROBE_GROUPS[-1], PROBE_GROUPS[-2]
        slope = ((observed[g_hi].cpu_cycles - observed[g_lo].cpu_cycles)
                 // (g_hi - g_lo))
        intercept = observed[g_hi].cpu_cycles - slope * g_hi

    g_hi, g_lo = PROBE_GROUPS[-1], PROBE_GROUPS[-2]
    buf_hi = observed[g_hi].buffer_full_stall_cycles
    buf_lo = observed[g_lo].buffer_full_stall_cycles
    buffer_slope = (buf_hi - buf_lo) // (g_hi - g_lo)
    buffer_intercept = buf_hi - buffer_slope * g_hi

    calibration = TileCalibration(
        signature=tuple(sorted(tile_signature(config).items())),
        cost_digest=cost_table_digest(costs),
        slope=slope,
        intercept=intercept,
        issue_cycles=tile_issue_cycles(config, costs),
        engine_cycles=tile_engine_cycles(config),
        tile_cells=blk.mr * blk.nr,
        ku_iters=max(lay.kua, lay.kub),
        group_elements=lay.group_elements,
        probes=tuple(
            (g, t.cpu_cycles, t.buffer_full_stall_cycles)
            for g, t in sorted(observed.items())),
        buffer_slope=buffer_slope,
        buffer_intercept=buffer_intercept,
        exact=False,
    )
    exact = affine and all(
        calibration.timing(g) == _tile_timing_engine(probe_config, costs, g)
        for g in HOLDOUT_GROUPS)
    return dataclasses.replace(calibration, exact=exact)


class CostCache:
    """Directory of :class:`TileCalibration` files, atomically published.

    One JSON file per (cost-table digest, tile signature); the file
    name embeds both so a cost-table edit strands the old entries (a
    lookup miss, then recalibration) without any invalidation pass.
    """

    def __init__(self, path: Optional[os.PathLike] = None) -> None:
        self.path = pathlib.Path(path) if path is not None \
            else default_cache_dir()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _file_name(cost_digest: str, signature: dict) -> str:
        return f"{cost_digest}-{_digest(signature)}.json"

    def _load_file(self, path: pathlib.Path) -> Optional[TileCalibration]:
        """Parse one entry; damaged/skewed files warn and read as
        absent (recalibration), never raise into the caller."""
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            return TileCalibration.from_dict(payload)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            warnings.warn(ReliabilityWarning(
                f"ignoring cost-cache entry {path.name}: "
                f"{type(exc).__name__}: {exc}"), stacklevel=3)
            return None

    def get(self, config: MixGemmConfig,
            costs: Optional[KernelCosts] = None,
            ) -> Optional[TileCalibration]:
        """Look up the calibration for ``(config, costs)``, or ``None``."""
        if costs is None:
            costs = KernelCosts()
        signature = tile_signature(config)
        cost_digest = cost_table_digest(costs)
        path = self.path / self._file_name(cost_digest, signature)
        entry = self._load_file(path) if path.is_file() else None
        if entry is not None and (
                entry.cost_digest != cost_digest
                or entry.signature_dict() != signature):
            warnings.warn(ReliabilityWarning(
                f"cost-cache entry {path.name} does not match its own "
                f"digest (cost-table drift, hash collision or "
                f"tampering); ignoring it and recalibrating"),
                stacklevel=2)
            entry = None
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, calibration: TileCalibration) -> pathlib.Path:
        """Persist ``calibration`` atomically; returns the final path."""
        self.path.mkdir(parents=True, exist_ok=True)
        final = self.path / self._file_name(
            calibration.cost_digest, calibration.signature_dict())
        tmp = self.path / f"{final.name}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(calibration.as_dict(), fh, indent=2,
                          sort_keys=True)
                fh.write("\n")
            os.replace(tmp, final)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return final

    def clear(self) -> int:
        """Delete every entry file; returns how many were removed."""
        removed = 0
        if self.path.is_dir():
            for path in sorted(self.path.glob("*.json")):
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    continue
        return removed


#: In-process memo over (cost digest, signature digest): one disk read
#: (or calibration) per distinct tile law per process.
_MEMO: dict[tuple[str, str], TileCalibration] = {}

#: Cache directories a ``put`` already failed on: warned about once,
#: after which calibrations there live in ``_MEMO`` only.
_UNWRITABLE: set[pathlib.Path] = set()


def clear_calibration_memo() -> None:
    """Drop the in-process memo (tests re-pointing the cache dir)."""
    _MEMO.clear()
    _UNWRITABLE.clear()


def get_tile_calibration(config: MixGemmConfig,
                         costs: Optional[KernelCosts] = None,
                         cache: Optional[CostCache] = None,
                         ) -> TileCalibration:
    """Memoized calibration lookup: memo, then disk, then calibrate.

    A miss at every level runs :func:`calibrate_tile` (the only code
    path that executes the event engine) and persists the result, so
    any later process with the same cost table predicts without ever
    touching the engine.  A cache that cannot be written (read-only
    home, full disk, a file where the directory should be) warns once
    with a :class:`~repro.robustness.errors.ReliabilityWarning` and
    keeps the calibration in memory only.
    """
    if costs is None:
        costs = KernelCosts()
    signature = tile_signature(config)
    memo_key = (cost_table_digest(costs), _digest(signature))
    calibration = _MEMO.get(memo_key)
    if calibration is not None:
        return calibration
    if cache is None:
        cache = CostCache()
    calibration = cache.get(config, costs)
    if calibration is None:
        calibration = calibrate_tile(config, costs)
        try:
            cache.put(calibration)
        except OSError as exc:
            if cache.path not in _UNWRITABLE:
                _UNWRITABLE.add(cache.path)
                warnings.warn(ReliabilityWarning(
                    f"cost cache {cache.path} is not writable "
                    f"({type(exc).__name__}: {exc}); keeping "
                    f"calibrations in memory only"), stacklevel=2)
    _MEMO[memo_key] = calibration
    return calibration


def calibrated_tile_fn(config: MixGemmConfig,
                       costs: Optional[KernelCosts] = None,
                       cache: Optional[CostCache] = None,
                       ) -> Callable[[int], MicroKernelTiming]:
    """Bind ``(config, costs)`` into a per-tile timing oracle."""
    calibration = get_tile_calibration(config, costs, cache)
    return calibration.timing


def exact_tile_timing(config: MixGemmConfig,
                      costs: Optional[KernelCosts] = None,
                      n_groups: int = 1,
                      ) -> Optional[MicroKernelTiming]:
    """Predicted tile timing iff the calibration is *exact*, else None.

    The fast path's substitution hook: a non-exact calibration (model
    drift, exotic buffer depth) returns ``None`` so the caller falls
    back to the engine reference and cycle counts never change.
    """
    calibration = get_tile_calibration(config, costs)
    if not calibration.exact:
        return None
    return calibration.timing(n_groups)


__all__ = [
    "COST_CACHE_ENV",
    "COST_SCHEMA_VERSION",
    "HOLDOUT_GROUPS",
    "PROBE_GROUPS",
    "CostCache",
    "TileCalibration",
    "calibrate_tile",
    "calibrated_tile_fn",
    "clear_calibration_memo",
    "cost_table_digest",
    "default_cache_dir",
    "exact_tile_timing",
    "get_tile_calibration",
    "tile_signature",
]
