"""Cycle-level functional model of the Mix-GEMM u-engine (Section III-B).

The u-engine is a computational pipeline living next to the scalar core's
functional units:

* two **Source Buffers** (16 u-vectors deep after the DSE) absorb the
  ``bs.ip`` operand pairs so the core does not wait for their completion;
* the **Data Selection Unit (DSU)** picks up to ``input_cluster_size``
  element pairs per cycle, reloading from a Source Buffer whenever one
  u-vector runs out (Figure 4);
* the **Data Conversion Unit (DCU)** sign/zero-extends the selected
  sub-u-vectors into clustering-width fields, forming the input-clusters;
* the shared **64-bit processor multiplier** computes one cluster product
  per cycle;
* the **Data Filtering Unit (DFU)** slices the inner product out of the
  product (Equation 5) and the internal adder accumulates it into the
  **AccMem**, whose address the **Control Unit** advances after each
  accumulation group;
* a **PMU** counts busy/stall cycles -- the paper uses it for the Source
  Buffer depth DSE (Section III-C).

Two views are provided with the same underlying DSU schedule:

* :class:`MicroEngine` -- executes an instruction stream bit-exactly while
  tracking time at u-vector granularity (discrete events, not a per-cycle
  loop, so it stays fast enough for whole small GEMMs);
* :func:`dsu_walk` / :func:`group_cycles` -- the closed-form per-group
  schedule the analytic performance model reuses for large problems.

Reference checks embedded in the tests: the walk yields 12, 12 and 9
accumulation cycles for the paper's a8-w8, a8-w6 and a6-w4 examples.
"""

from __future__ import annotations

import functools
import operator
from collections import deque
from dataclasses import dataclass, field

from .binseg import (
    ClusterDatapath,
    clustering_width,
    cluster_datapath,
    input_cluster_size,
)
from .config import MixGemmConfig, UVectorLayout
from .errors import ReproError
from .isa import (
    BS_GET_COST,
    BS_IP_COST,
    BS_SET_COST,
    BsGet,
    BsInstruction,
    BsIp,
    BsSet,
    InstructionStream,
)
from .packing import unpack_fields


class MicroEngineError(ReproError, RuntimeError):
    """Raised on protocol violations (e.g. bs.ip before bs.set)."""


def wrap_signed(value: int, bits: int) -> int:
    """Reduce ``value`` to a ``bits``-wide two's-complement register.

    This is what a hardware accumulator of finite width does on
    overflow: the carry out of the top bit is silently dropped.  The
    static overflow contract (``ACC-OVERFLOW``) exists precisely to
    prove this function is the identity for every reachable value.
    """
    mask = (1 << bits) - 1
    value &= mask
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def distribute_elements(n: int, n_words: int, per_word: int) -> list[int]:
    """Spread ``n`` logical elements densely over ``n_words`` u-vectors.

    Elements fill words front to back; the zero padding therefore sits at
    the tail of the group, matching the packing layout and Figure 4.
    """
    if n > n_words * per_word:
        raise MicroEngineError(
            f"{n} elements cannot fit {n_words} words of {per_word}"
        )
    return [max(0, min(per_word, n - i * per_word)) for i in range(n_words)]


@dataclass(frozen=True)
class GroupSchedule:
    """DSU schedule for one accumulation group of kua + kub u-vectors.

    ``chunks[c]`` is the number of element pairs the DSU selects on walk
    cycle ``c``; ``a_release[w]``/``b_release[w]`` give the walk cycle
    (1-based, i.e. cycles elapsed) after which u-vector ``w`` of the
    respective stream has been fully consumed and its Source Buffer slot
    frees up; ``a_needed[w]``/``b_needed[w]`` give the walk cycle (0-based)
    at which the DSU first reads that u-vector.
    """

    chunks: tuple[int, ...]
    a_release: tuple[int, ...]
    b_release: tuple[int, ...]
    a_needed: tuple[int, ...]
    b_needed: tuple[int, ...]
    n_elements: int

    @property
    def cycles(self) -> int:
        """Multiplier passes (= accumulations) this group costs."""
        return len(self.chunks)

    @property
    def macs_per_cycle(self) -> float:
        return self.n_elements / self.cycles


@functools.lru_cache(maxsize=None)
def dsu_walk(
    elems_a: int,
    elems_b: int,
    kua: int,
    kub: int,
    cluster_size: int,
    n_elements: int,
) -> GroupSchedule:
    """Simulate the DSU selection for one group (Figure 4 semantics).

    Each cycle the DSU selects ``min(cluster_size, remaining in the current
    A u-vector, remaining in the current B u-vector, remaining in the
    group)`` element pairs; when a u-vector empties, the next one is pulled
    from its Source Buffer on the following cycle.
    """
    a_counts = distribute_elements(n_elements, kua, elems_a)
    b_counts = distribute_elements(n_elements, kub, elems_b)
    chunks: list[int] = []
    a_release = [0] * kua
    b_release = [0] * kub
    a_needed = [0] * kua
    b_needed = [0] * kub
    ai = bi = 0
    rem_a, rem_b = a_counts[0], b_counts[0]
    remaining = n_elements
    cycle = 0
    while remaining > 0:
        while rem_a == 0:  # zero-count words (over-padded group tail)
            a_release[ai] = cycle
            ai += 1
            rem_a = a_counts[ai]
            a_needed[ai] = cycle
        while rem_b == 0:
            b_release[bi] = cycle
            bi += 1
            rem_b = b_counts[bi]
            b_needed[bi] = cycle
        chunk = min(cluster_size, rem_a, rem_b, remaining)
        cycle += 1
        chunks.append(chunk)
        rem_a -= chunk
        rem_b -= chunk
        remaining -= chunk
        if rem_a == 0 and remaining > 0:
            a_release[ai] = cycle
            ai += 1
            rem_a = a_counts[ai] if ai < kua else 0
            if ai < kua:
                a_needed[ai] = cycle
        if rem_b == 0 and remaining > 0:
            b_release[bi] = cycle
            bi += 1
            rem_b = b_counts[bi] if bi < kub else 0
            if bi < kub:
                b_needed[bi] = cycle
    # Whatever is still held (including pure-padding tail words) releases
    # when the group completes.
    for w in range(ai, kua):
        a_release[w] = cycle
    for w in range(bi, kub):
        b_release[w] = cycle
    return GroupSchedule(
        chunks=tuple(chunks),
        a_release=tuple(a_release),
        b_release=tuple(b_release),
        a_needed=tuple(a_needed),
        b_needed=tuple(b_needed),
        n_elements=n_elements,
    )


def group_schedule(config: MixGemmConfig,
                   n_elements: int | None = None) -> GroupSchedule:
    """DSU schedule for one full (or partial) group of ``config``."""
    lay = config.layout
    n = lay.group_elements if n_elements is None else n_elements
    return dsu_walk(
        lay.elems_a, lay.elems_b, lay.kua, lay.kub,
        config.binseg.input_cluster_size, n,
    )


def group_cycles(config: MixGemmConfig,
                 n_elements: int | None = None) -> int:
    """Multiplier cycles for one accumulation group (12/12/9 in Fig. 4)."""
    return group_schedule(config, n_elements).cycles


def effective_macs_per_cycle(config: MixGemmConfig) -> float:
    """Steady-state engine throughput including u-vector boundary losses.

    The paper notes a2-w2 loses ~15% against its theoretical bound because
    32-element u-vectors drain in 5 cycles at 7 MAC/cycle; this number is
    that effect, derived from the DSU schedule rather than assumed.
    """
    return group_schedule(config).macs_per_cycle


@dataclass(frozen=True)
class EngineDatapath:
    """Everything ``bs.set`` fixes for one configuration (Section III-B).

    After ``bs.set`` the DSU walks the same schedule for every group, the
    DCU converts the same fields and the DFU takes the same slices; only
    the u-vector data changes.  The engine therefore resolves all of it
    once per configuration instead of once per group or cluster:

    * ``schedule`` -- the full-group DSU walk (the engine always walks
      full groups; tail groups carry zero padding);
    * ``a_shifts``/``b_shifts`` -- per u-vector word, the bit offsets of
      the fields it contributes to a group, with the ``*_mask``/``*_sign``
      constants of :func:`~repro.core.packing.unpack_fields`;
    * ``clusters`` -- per walk cycle, the ``[start, stop)`` element range
      the DSU selects and the :class:`~repro.core.binseg.ClusterDatapath`
      (field width, slice LSB, sign constants) for that chunk length;
    * ``a_ready``/``b_ready`` -- per word, walk cycles from the DSU's
      first read of it to the group's end; ``a_hold``/``b_hold`` -- walk
      cycles from its release to the group's end.
    """

    kua: int
    kub: int
    schedule: GroupSchedule
    a_shifts: tuple[tuple[int, ...], ...]
    b_shifts: tuple[tuple[int, ...], ...]
    a_mask: int
    a_sign: int
    b_mask: int
    b_sign: int
    clusters: tuple[tuple[int, int, ClusterDatapath], ...]
    a_ready: tuple[int, ...]
    b_ready: tuple[int, ...]
    a_hold: tuple[int, ...]
    b_hold: tuple[int, ...]


def engine_datapath(config: MixGemmConfig) -> EngineDatapath:
    """The memoised :class:`EngineDatapath` of ``config``."""
    return _engine_datapath(config.bw_a, config.bw_b, config.signed_a,
                            config.signed_b, config.mul_width, config.kua,
                            config.kub, config.word_bits)


def _field_shifts(n: int, n_words: int, bw: int,
                  word_bits: int) -> tuple[tuple[int, ...], ...]:
    counts = distribute_elements(n, n_words, word_bits // bw)
    return tuple(tuple(range(0, count * bw, bw)) for count in counts)


@functools.lru_cache(maxsize=None)
def _engine_datapath(bw_a: int, bw_b: int, signed_a: bool, signed_b: bool,
                     mul_width: int, kua: int, kub: int,
                     word_bits: int) -> EngineDatapath:
    lay = UVectorLayout(bw_a=bw_a, bw_b=bw_b, kua=kua, kub=kub,
                        word_bits=word_bits)
    size = input_cluster_size(bw_a, bw_b, mul_width)
    cw = clustering_width(bw_a, bw_b, size)
    n = lay.group_elements
    sched = dsu_walk(lay.elems_a, lay.elems_b, kua, kub, size, n)
    clusters = []
    start = 0
    for chunk in sched.chunks:
        clusters.append((start, start + chunk, cluster_datapath(chunk, cw)))
        start += chunk
    cycles = sched.cycles
    return EngineDatapath(
        kua=kua,
        kub=kub,
        schedule=sched,
        a_shifts=_field_shifts(n, kua, bw_a, word_bits),
        b_shifts=_field_shifts(n, kub, bw_b, word_bits),
        a_mask=(1 << bw_a) - 1,
        a_sign=1 << (bw_a - 1) if signed_a else 0,
        b_mask=(1 << bw_b) - 1,
        b_sign=1 << (bw_b - 1) if signed_b else 0,
        clusters=tuple(clusters),
        a_ready=tuple(cycles - needed for needed in sched.a_needed),
        b_ready=tuple(cycles - needed for needed in sched.b_needed),
        a_hold=tuple(cycles - rel for rel in sched.a_release),
        b_hold=tuple(cycles - rel for rel in sched.b_release),
    )


# ---------------------------------------------------------------------------
# Performance monitoring unit
# ---------------------------------------------------------------------------


@dataclass
class PmuCounters:
    """Micro-engine PMU, as used for the Section III-C buffer-depth DSE."""

    cycles_total: int = 0
    engine_busy_cycles: int = 0
    buffer_full_stall_cycles: int = 0
    get_stall_cycles: int = 0
    macs: int = 0
    groups: int = 0
    ip_instructions: int = 0
    get_instructions: int = 0
    set_instructions: int = 0

    @property
    def buffer_stall_fraction(self) -> float:
        if self.cycles_total == 0:
            return 0.0
        return self.buffer_full_stall_cycles / self.cycles_total

    @property
    def get_stall_fraction(self) -> float:
        if self.cycles_total == 0:
            return 0.0
        return self.get_stall_cycles / self.cycles_total

    @property
    def macs_per_cycle(self) -> float:
        if self.cycles_total == 0:
            return 0.0
        return self.macs / self.cycles_total


# ---------------------------------------------------------------------------
# The micro-engine proper
# ---------------------------------------------------------------------------


@dataclass
class EngineRun:
    """Result of executing an instruction stream."""

    values: list[int] = field(default_factory=list)
    pmu: PmuCounters = field(default_factory=PmuCounters)


class MicroEngine:
    """Bit-exact, event-timed model of the u-engine.

    Drive it either through :meth:`execute` with an
    :class:`~repro.core.isa.InstructionStream`, or instruction by
    instruction via :meth:`set_config`, :meth:`push_pair` and
    :meth:`read_slot` (each returns the stall cycles the CPU observes,
    letting the SoC model interleave other instructions).

    Parameters
    ----------
    config:
        Full Mix-GEMM configuration (data sizes, kua/kub, buffer depth,
        AccMem slots from the blocking parameters).
    emulate_datapath:
        When true (default) every walk cycle of every group goes through
        the binary-segmentation datapath: the DCU packs both input-clusters
        (``b`` reversed) into ``cw``-bit fields, the multiplier forms the
        one wide product and the DFU takes the signed slice plus the
        borrow bit (:class:`~repro.core.binseg.ClusterDatapath`, the same
        code :func:`~repro.core.binseg.cluster_inner_product` runs).  The
        field widths, slice positions and DSU schedule are resolved once
        per ``bs.set`` (:func:`engine_datapath`), and the unpacked fields
        are in range by construction, so nothing is re-derived or
        re-validated per cluster.  The DCU's work depends only on a
        group's u-vector words, so the engine memoises it per ``bs.set``:
        each distinct group of ``kua`` (``kub``) words is unpacked and
        packed into its per-walk-cycle input-clusters once, and every
        further group with the same words runs only the wide multiply
        and the DFU slice.  When false the group inner product is
        computed directly from the memoised fields: identical values,
        cycles and PMU counts (asserted by the test-suite), without the
        packing work.
    fault_hook:
        Optional fault-injection hook (duck-typed; see
        :class:`repro.robustness.faults.FaultInjector`).  After every
        accumulation group the engine calls
        ``fault_hook.on_accumulate(accmem, group_index)``, which may flip
        bits in the AccMem in place -- the mechanism the reliability
        campaigns use to model accumulator soft errors.
    """

    def __init__(self, config: MixGemmConfig | None = None, *,
                 emulate_datapath: bool = True, fault_hook=None) -> None:
        self._emulate_datapath = emulate_datapath
        self._fault_hook = fault_hook
        self._configured = False
        self._cpu_time = 0
        self._engine_time = 0
        self.pmu = PmuCounters()
        # Buffered u-vectors not yet grouped: (word, CPU cycle at which
        # bs.ip delivered it).
        self._a_queue: deque[tuple[int, int]] = deque()
        self._b_queue: deque[tuple[int, int]] = deque()
        # Cycle at which each already-scheduled (but not yet drained)
        # u-vector frees its Source Buffer slot.  Nondecreasing by
        # construction: release offsets grow with the word index within a
        # group, and each group finishes at least its walk length after
        # the previous one.
        self._a_releases: deque[int] = deque()
        self._b_releases: deque[int] = deque()
        # DCU operands per distinct u-vector group since the last bs.set,
        # keyed by the group's word values (see _group_inner_product).
        self._a_memo: dict[tuple[int, ...], list[int]] = {}
        self._b_memo: dict[tuple[int, ...], list[int]] = {}
        self._group_counter = 0
        if config is not None:
            self.set_config(config)

    # -- configuration ------------------------------------------------------

    def set_config(self, config: MixGemmConfig) -> int:
        """Model ``bs.set``: single-cycle Control Unit reconfiguration."""
        self._config = config
        self._datapath = engine_datapath(config)
        self._a_memo.clear()
        self._b_memo.clear()
        self._depth = config.source_buffer_depth
        self._accmem_bits = config.accmem_bits
        self._accmem = [0] * config.blocking.accmem_slots
        self._group_counter = 0
        self._configured = True
        self._cpu_time += BS_SET_COST
        self.pmu.set_instructions += 1
        return 0

    @property
    def accmem(self) -> list[int]:
        return list(self._accmem)

    @property
    def now(self) -> int:
        """Current CPU-visible cycle."""
        return self._cpu_time

    def advance(self, cycles: int) -> None:
        """Let the CPU spend cycles on unrelated instructions (loads etc.)."""
        if cycles < 0:
            raise ValueError("cannot advance time backwards")
        self._cpu_time += cycles

    # -- bs.ip ---------------------------------------------------------------

    def push_pair(self, a_word: int, b_word: int, *,
                  push_a: bool = True, push_b: bool = True) -> int:
        """Model ``bs.ip``: buffer one u-vector (pair).  Returns the stall
        cycles the CPU spent waiting for Source Buffer space."""
        if not self._configured:
            raise MicroEngineError("bs.ip before bs.set")
        issue_at = self._cpu_time
        a_queue, b_queue = self._a_queue, self._b_queue
        # The instruction needs a free slot in each buffer it writes; a
        # slot is occupied from push until the DSU releases the u-vector.
        # When every target has room at the issue cycle the instruction
        # issues without a stall; otherwise wait for the releases.
        self._prune_releases(issue_at)
        depth = self._depth
        if ((push_a and len(a_queue) + len(self._a_releases) >= depth)
                or (push_b
                    and len(b_queue) + len(self._b_releases) >= depth)):
            stall = self._stall_for_slots(issue_at, push_a, push_b)
            self.pmu.buffer_full_stall_cycles += stall
        else:
            stall = 0
        arrival = self._cpu_time = issue_at + stall + BS_IP_COST
        self.pmu.ip_instructions += 1
        if push_a:
            a_queue.append((a_word, arrival))
        if push_b:
            b_queue.append((b_word, arrival))
        self._try_process_groups()
        return stall

    def _stall_for_slots(self, issue_at: int, push_a: bool,
                         push_b: bool) -> int:
        """Cycles a ``bs.ip`` issued at ``issue_at`` waits for a free slot
        in each Source Buffer it writes."""
        targets = []
        if push_a:
            targets.append((self._a_queue, self._a_releases))
        if push_b:
            targets.append((self._b_queue, self._b_releases))
        wait_until = issue_at
        for queue, releases in targets:
            wait_until = max(
                wait_until, self._time_for_free_slot(queue, releases,
                                                     wait_until)
            )
        return wait_until - issue_at

    def _time_for_free_slot(self, queue: deque[tuple[int, int]],
                            releases: deque[int], now: int) -> int:
        """Earliest cycle at which ``queue``'s buffer has a free slot."""
        self._prune_releases(now)
        occupancy = len(queue) + len(releases)
        if occupancy < self._depth:
            return now
        # Pending (ungrouped) words have no release time yet; schedule as
        # many complete groups as possible to learn theirs.
        self._try_process_groups()
        self._prune_releases(now)
        occupancy = len(queue) + len(releases)
        if occupancy < self._depth:
            return now
        # Waiting only drains scheduled words; pending (ungrouped) ones need
        # future pushes to complete their group, which cannot happen while
        # the CPU is stalled on this push.
        overflow = occupancy - self._depth
        if len(releases) < overflow + 1:
            raise MicroEngineError(
                "Source Buffer full of unscheduled u-vectors; buffer depth "
                "is smaller than the configuration's kua/kub group size"
            )
        free_at = releases[overflow]  # nondecreasing, see __init__
        return max(now, free_at)

    def _prune_releases(self, now: int) -> None:
        for releases in (self._a_releases, self._b_releases):
            while releases and releases[0] <= now:
                releases.popleft()

    # -- bs.get ---------------------------------------------------------------

    def read_slot(self, slot: int) -> tuple[int, int]:
        """Model ``bs.get``: read (and clear) one AccMem slot.

        Returns ``(value, stall_cycles)``.  The CPU stalls until every
        buffered u-vector has been consumed, because the slot may still
        have accumulations in flight (the paper observed such stalls only
        with 32-deep buffers).
        """
        if not self._configured:
            raise MicroEngineError("bs.get before bs.set")
        if not 0 <= slot < len(self._accmem):
            raise MicroEngineError(f"AccMem slot {slot} out of range")
        stall = 0
        self._process_all_available()
        if self._engine_time > self._cpu_time:
            # The C u-panel may still have accumulations in flight; the
            # first bs.get of the collection loop absorbs the drain.
            stall = self._engine_time - self._cpu_time
            self._cpu_time = self._engine_time
        self._cpu_time += BS_GET_COST
        self.pmu.get_stall_cycles += stall
        self.pmu.get_instructions += 1
        value = self._accmem[slot]
        self._accmem[slot] = 0
        return value, stall

    # -- whole-stream execution ----------------------------------------------

    def execute(self, stream: InstructionStream,
                config: MixGemmConfig | None = None) -> EngineRun:
        """Run a full instruction stream; gather bs.get values and the PMU."""
        run = EngineRun()
        for instr in stream:
            self._dispatch(instr, run, config)
        run.pmu = self.pmu
        self.pmu.cycles_total = max(self._cpu_time, self._engine_time)
        return run

    def _dispatch(self, instr: BsInstruction, run: EngineRun,
                  config: MixGemmConfig | None) -> None:
        if isinstance(instr, BsSet):
            if config is None and not self._configured:
                raise MicroEngineError(
                    "stream execution needs a MixGemmConfig for bs.set"
                )
            if config is not None:
                self.set_config(config)
            else:
                self._cpu_time += BS_SET_COST
                self.pmu.set_instructions += 1
        elif isinstance(instr, BsIp):
            self.push_pair(instr.a_word, instr.b_word,
                           push_a=instr.push_a, push_b=instr.push_b)
        elif isinstance(instr, BsGet):
            value, _ = self.read_slot(instr.slot)
            run.values.append(value)
        else:  # pragma: no cover - defensive
            raise MicroEngineError(f"unknown instruction {instr!r}")

    # -- engine internals ------------------------------------------------------

    def _try_process_groups(self) -> None:
        dp = self._datapath
        a_queue, b_queue = self._a_queue, self._b_queue
        while len(a_queue) >= dp.kua and len(b_queue) >= dp.kub:
            self._process_group()

    def _process_all_available(self) -> None:
        self._try_process_groups()
        # A trailing partial group cannot exist in a well-formed stream;
        # leftover words simply wait for their group to complete.

    def _process_group(self) -> None:
        dp = self._datapath
        a_words, a_arrivals = zip(*[self._a_queue.popleft()
                                    for _ in range(dp.kua)])
        b_words, b_arrivals = zip(*[self._b_queue.popleft()
                                    for _ in range(dp.kub)])
        cycles = dp.schedule.cycles
        # Group start: engine free and the first u-vector of each stream
        # delivered; each walk cycle additionally waits for the u-vectors it
        # first touches.
        start = max(self._engine_time, a_arrivals[0], b_arrivals[0])
        finish = max(start + cycles,
                     *map(operator.add, a_arrivals, dp.a_ready),
                     *map(operator.add, b_arrivals, dp.b_ready))
        self._engine_time = finish
        self.pmu.engine_busy_cycles += cycles
        # Each u-vector keeps its Source Buffer slot until the DSU finishes
        # with it; anchor the relative release offsets to the group finish.
        self._a_releases.extend(finish - hold for hold in dp.a_hold)
        self._b_releases.extend(finish - hold for hold in dp.b_hold)
        # Functional accumulation into a finite-width AccMem register:
        # values past the configured width wrap exactly as hardware would.
        value = self._group_inner_product(a_words, b_words)
        slot = self._group_counter % len(self._accmem)
        self._accmem[slot] = wrap_signed(self._accmem[slot] + value,
                                         self._accmem_bits)
        self._group_counter += 1
        self.pmu.groups += 1
        self.pmu.macs += dp.schedule.n_elements
        if self._fault_hook is not None:
            self._fault_hook.on_accumulate(self._accmem,
                                           self._group_counter - 1)
            # Injected bit flips land in the same finite registers.
            for i, v in enumerate(self._accmem):
                self._accmem[i] = wrap_signed(v, self._accmem_bits)

    def _group_inner_product(self, a_words: tuple[int, ...],
                             b_words: tuple[int, ...]) -> int:
        """One group's inner product from its ``kua`` + ``kub`` words.

        The DCU operands of a group -- its unpacked fields, or with the
        datapath emulated its packed input-clusters, one per walk cycle
        -- depend only on the group's words and the ``bs.set``
        configuration.  They are memoised per side, keyed by the word
        values: Algorithm 1 meets every A group with every B column, so
        each group would otherwise be unpacked and packed n (or m) times.
        ``bs.set`` clears the memo, so it never outlives one
        configuration; keying on values (not run positions) keeps
        storage faults exact, since a flipped word is a different key.
        """
        dp = self._datapath
        emulate = self._emulate_datapath
        a = self._a_memo.get(a_words)
        if a is None:
            a = unpack_fields(a_words, dp.a_shifts, dp.a_mask, dp.a_sign)
            if emulate:
                a = [cluster.pack_a(a[lo:hi])
                     for lo, hi, cluster in dp.clusters]
            self._a_memo[a_words] = a
        b = self._b_memo.get(b_words)
        if b is None:
            b = unpack_fields(b_words, dp.b_shifts, dp.b_mask, dp.b_sign)
            if emulate:
                b = [cluster.pack_b(b[lo:hi])
                     for lo, hi, cluster in dp.clusters]
            self._b_memo[b_words] = b
        if not emulate:
            return sum(map(operator.mul, a, b))
        # Per walk cycle: the one wide product, then the DFU slice.
        total = 0
        for (_, _, cluster), cluster_a, cluster_b in zip(dp.clusters, a, b):
            total += cluster.extract(cluster_a * cluster_b)
        return total
