"""Counters collected by the functional cache simulator."""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field


class TransientOutcome(enum.Enum):
    """Classification of one affected read: picks its transient counter."""

    CORRECTED = "corrected"   #: within the code's correction budget
    REFETCH = "refetch"       #: detected on a clean line -> refetched
    DUE = "due"               #: detected on a dirty line -> unrecoverable
    SILENT = "silent"         #: beyond detection -> corrupt data consumed

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class CacheStats:
    """Access statistics, global and per way group.

    Invariants (checked by tests): ``reads + writes == accesses``,
    ``hits + misses == accesses``, each per-group counter sums to its
    global counterpart.
    """

    reads: int = 0
    writes: int = 0
    read_hits: int = 0
    write_hits: int = 0
    read_misses: int = 0
    write_misses: int = 0
    fills: int = 0
    writebacks: int = 0
    flush_writebacks: int = 0
    #: Misses that could not allocate because every usable way of the
    #: set is disabled by a hard-fault map (``fills + bypasses ==
    #: misses`` always holds; without a fault map ``bypasses`` is 0).
    bypasses: int = 0
    #: Read hits whose word carried upsets the active code corrected
    #: (soft-error injection only; see :mod:`repro.transients`).
    transient_corrected: int = 0
    #: Read hits with a detected-uncorrectable word on a *clean* line:
    #: recovered by refetching from the next level.
    transient_refetches: int = 0
    #: Detected-uncorrectable reads of *dirty* lines — no clean copy
    #: exists, so the error is a DUE (detected uncorrectable error).
    transient_due: int = 0
    #: Reads whose upsets exceeded even the detection budget: corrupt
    #: data silently consumed (SDC).
    transient_silent: int = 0
    group_read_hits: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    group_write_hits: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    group_fills: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    group_writebacks: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    group_transient_corrected: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    group_transient_refetches: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )

    @property
    def transient_affected(self) -> int:
        """Read hits that observed at least one upset."""
        return (
            self.transient_corrected
            + self.transient_refetches
            + self.transient_due
            + self.transient_silent
        )

    @property
    def accesses(self) -> int:
        """Total probes."""
        return self.reads + self.writes

    @property
    def hits(self) -> int:
        """Total hits."""
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        """Total misses."""
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        """Misses per access (0 when idle)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    #: The per-way-group counter maps, in declaration order; shared by
    #: :meth:`merge` and :meth:`clone`.
    _GROUP_ATTRS = (
        "group_read_hits",
        "group_write_hits",
        "group_fills",
        "group_writebacks",
        "group_transient_corrected",
        "group_transient_refetches",
    )

    def clone(self) -> "CacheStats":
        """A mutation-isolated copy.

        Counters are ints and the per-group maps are flat ``str -> int``
        dictionaries, so a shallow rebuild *is* a deep copy — at a
        fraction of :func:`copy.deepcopy`'s cost (no recursive
        dispatch, no memo table).  The batching layer hands clones of
        memoized stats to each job so one job's ``merge`` can never
        corrupt another's result.
        """
        twin = CacheStats(
            reads=self.reads,
            writes=self.writes,
            read_hits=self.read_hits,
            write_hits=self.write_hits,
            read_misses=self.read_misses,
            write_misses=self.write_misses,
            fills=self.fills,
            writebacks=self.writebacks,
            flush_writebacks=self.flush_writebacks,
            bypasses=self.bypasses,
            transient_corrected=self.transient_corrected,
            transient_refetches=self.transient_refetches,
            transient_due=self.transient_due,
            transient_silent=self.transient_silent,
        )
        for attr in self._GROUP_ATTRS:
            getattr(twin, attr).update(getattr(self, attr))
        return twin

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another stats object into this one."""
        self.reads += other.reads
        self.writes += other.writes
        self.read_hits += other.read_hits
        self.write_hits += other.write_hits
        self.read_misses += other.read_misses
        self.write_misses += other.write_misses
        self.fills += other.fills
        self.writebacks += other.writebacks
        self.flush_writebacks += other.flush_writebacks
        self.bypasses += other.bypasses
        self.transient_corrected += other.transient_corrected
        self.transient_refetches += other.transient_refetches
        self.transient_due += other.transient_due
        self.transient_silent += other.transient_silent
        for attr in self._GROUP_ATTRS:
            mine = getattr(self, attr)
            for key, value in getattr(other, attr).items():
                mine[key] += value

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"{self.accesses} accesses, {self.hits} hits "
            f"({100 * (1 - self.miss_rate):.1f} %), "
            f"{self.fills} fills, {self.writebacks} writebacks"
        )
