"""Hybrid cache configuration — the vocabulary of the paper's Section III.

A cache is a set of *way groups*.  Each group has a bitcell design, a
per-mode protection scheme for data and tag words, the set of modes in
which its ways are powered, and a flag telling whether the EDC decode sits
on the access critical path (the proposed 8T ways must correct *hard*
faults inline at ULE mode; soft-error-only SECDED can correct lazily off
the critical path — see DESIGN.md).

Example — the paper's scenario A proposed cache (8 KB, 8-way, 7+1):

* group "hp": 7 ways of 6T cells, no coding, powered at HP only;
* group "ule": 1 way of 8T cells, SECDED at ULE / nothing at HP,
  powered in both modes, EDC inline at ULE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.cells import SizedCell
from repro.edc.protection import ProtectionScheme, check_bits_for
from repro.tech.operating import Mode
from repro.util.canonical import canonical_digest, canonical_form

#: Paper constants (Section III-C / IV-A): word granularities.
DATA_WORD_BITS = 32
TAG_BITS = 26

#: Replacement policies a configuration may name (see
#: :mod:`repro.cache.replacement`).  Only LRU has a vectorized fast path;
#: the engine runs the others on the behavioural model.
REPLACEMENT_POLICIES = ("lru", "fifo", "plru", "random")


def _freeze(
    mapping: Mapping[Mode, ProtectionScheme]
) -> Mapping[Mode, ProtectionScheme]:
    return MappingProxyType(dict(mapping))


@dataclass(frozen=True)
class WayGroupConfig:
    """One homogeneous group of cache ways.

    Attributes:
        name: group label ("hp", "ule", ...).
        ways: number of ways in the group.
        cell: the sized bitcell design of the group's arrays.
        data_protection: active protection per mode for data words.
        tag_protection: active protection per mode for tag words.
        active_modes: modes in which the group's ways are powered
            (inactive groups are gated-Vdd off).
        edc_inline_modes: modes in which the EDC decode adds a pipeline
            cycle to the access latency (hard-fault inline correction).
    """

    name: str
    ways: int
    cell: SizedCell
    data_protection: Mapping[Mode, ProtectionScheme]
    tag_protection: Mapping[Mode, ProtectionScheme]
    active_modes: frozenset[Mode]
    edc_inline_modes: frozenset[Mode] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.ways <= 0:
            raise ValueError("a way group needs at least one way")
        object.__setattr__(
            self, "data_protection", _freeze(self.data_protection)
        )
        object.__setattr__(
            self, "tag_protection", _freeze(self.tag_protection)
        )
        object.__setattr__(self, "active_modes", frozenset(self.active_modes))
        object.__setattr__(
            self, "edc_inline_modes", frozenset(self.edc_inline_modes)
        )
        for mode in self.active_modes:
            if mode not in self.data_protection:
                raise ValueError(
                    f"group {self.name!r}: no data protection for {mode}"
                )
            if mode not in self.tag_protection:
                raise ValueError(
                    f"group {self.name!r}: no tag protection for {mode}"
                )

    # Mapping proxies cannot pickle; configs must cross process
    # boundaries for the engine's parallel dispatch, so state round-trips
    # through plain dicts and re-freezes on load.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["data_protection"] = dict(self.data_protection)
        state["tag_protection"] = dict(self.tag_protection)
        return state

    def __setstate__(self, state: dict) -> None:
        state = dict(state)
        state["data_protection"] = _freeze(state["data_protection"])
        state["tag_protection"] = _freeze(state["tag_protection"])
        for key, value in state.items():
            object.__setattr__(self, key, value)

    def is_active(self, mode: Mode) -> bool:
        """Whether the group's ways are powered in ``mode``."""
        return mode in self.active_modes

    def edc_inline(self, mode: Mode) -> bool:
        """Whether EDC latency is on the critical path in ``mode``."""
        return mode in self.edc_inline_modes

    # ------------------------------------------------------ stored layout
    @property
    def stored_data_check_bits(self) -> int:
        """Check bits physically provisioned per data word.

        The array must hold the *strongest* code used in any mode (the
        scenario-B proposed way stores 13 DECTED bits and uses only 7 of
        them in SECDED mode at HP).
        """
        return max(
            (
                check_bits_for(scheme, DATA_WORD_BITS)
                for scheme in self.data_protection.values()
            ),
            default=0,
        )

    @property
    def stored_tag_check_bits(self) -> int:
        """Check bits physically provisioned per tag word."""
        return max(
            (
                check_bits_for(scheme, TAG_BITS)
                for scheme in self.tag_protection.values()
            ),
            default=0,
        )

    def active_data_check_bits(self, mode: Mode) -> int:
        """Check bits read/written per data word in ``mode``.

        The stored codeword format is that of the *strongest* scheme the
        way ever uses (a line written at HP must stay decodable at ULE),
        so whenever any coding is active the full stored redundancy moves
        through the bitlines; a weaker active scheme only simplifies the
        decoder, not the storage traffic.  With coding off (scenario A at
        HP) the check columns are gated entirely.
        """
        scheme = self.data_protection.get(mode, ProtectionScheme.NONE)
        if scheme is ProtectionScheme.NONE:
            return 0
        return self.stored_data_check_bits

    def active_tag_check_bits(self, mode: Mode) -> int:
        """Check bits read/written per tag word in ``mode``."""
        scheme = self.tag_protection.get(mode, ProtectionScheme.NONE)
        if scheme is ProtectionScheme.NONE:
            return 0
        return self.stored_tag_check_bits

    @property
    def stored_data_scheme(self) -> ProtectionScheme:
        """The strongest data scheme — the stored codeword format."""
        return max(
            self.data_protection.values(),
            key=lambda s: check_bits_for(s, DATA_WORD_BITS),
            default=ProtectionScheme.NONE,
        )

    @property
    def stored_tag_scheme(self) -> ProtectionScheme:
        """The strongest tag scheme — the stored codeword format."""
        return max(
            self.tag_protection.values(),
            key=lambda s: check_bits_for(s, TAG_BITS),
            default=ProtectionScheme.NONE,
        )

    def canonical(self) -> dict:
        """Invocation-stable, JSON-able content description."""
        return canonical_form(self)


@dataclass(frozen=True)
class CacheConfig:
    """A hybrid set-associative cache.

    Attributes:
        name: configuration label (e.g. "A-proposed").
        size_bytes: total data capacity.
        line_bytes: cache line size.
        way_groups: the way groups, HP group(s) first by convention.
        replacement: replacement policy name (see
            :data:`REPLACEMENT_POLICIES`); non-LRU policies simulate on
            the behavioural model.
    """

    name: str
    size_bytes: int
    line_bytes: int
    way_groups: tuple[WayGroupConfig, ...]
    data_word_bits: int = DATA_WORD_BITS
    tag_bits: int = TAG_BITS
    replacement: str = "lru"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0:
            raise ValueError("sizes must be positive")
        if self.size_bytes % self.line_bytes:
            raise ValueError("size must be a multiple of the line size")
        if not self.way_groups:
            raise ValueError("need at least one way group")
        if self.line_bytes * 8 % self.data_word_bits:
            raise ValueError("line must hold an integer number of words")
        if self.lines % self.ways:
            raise ValueError("lines must divide evenly into ways")
        invalid = decode_invalidity(self.line_bytes, self.sets)
        if invalid is not None:
            raise ValueError(invalid)
        if self.replacement not in REPLACEMENT_POLICIES:
            raise ValueError(
                f"unknown replacement policy {self.replacement!r}; "
                f"known: {list(REPLACEMENT_POLICIES)}"
            )

    # ------------------------------------------------------------ geometry
    @property
    def ways(self) -> int:
        """Total associativity."""
        return sum(group.ways for group in self.way_groups)

    @property
    def lines(self) -> int:
        """Total number of cache lines."""
        return self.size_bytes // self.line_bytes

    @property
    def sets(self) -> int:
        """Number of sets."""
        return self.lines // self.ways

    @property
    def words_per_line(self) -> int:
        """Data words per cache line."""
        return self.line_bytes * 8 // self.data_word_bits

    @property
    def offset_bits(self) -> int:
        """Line-offset address bits."""
        return (self.line_bytes - 1).bit_length()

    @property
    def index_bits(self) -> int:
        """Set-index address bits."""
        return (self.sets - 1).bit_length() if self.sets > 1 else 0

    # ----------------------------------------------------------- way maps
    def group_of_way(self, way: int) -> WayGroupConfig:
        """The way group that owns global way index ``way``."""
        if way < 0:
            raise ValueError("way must be non-negative")
        base = 0
        for group in self.way_groups:
            if way < base + group.ways:
                return group
            base += group.ways
        raise ValueError(f"way {way} out of range (ways={self.ways})")

    def ways_of_group(self, name: str) -> list[int]:
        """Global way indices belonging to the named group."""
        base = 0
        for group in self.way_groups:
            if group.name == name:
                return list(range(base, base + group.ways))
            base += group.ways
        raise ValueError(f"no way group named {name!r}")

    def lines_of_group(self, name: str) -> int:
        """Line capacity of the named way group (sets x its ways).

        The runtime scheduler uses this to cap its cache-residency
        estimates: a way group can never hold more resident (or dirty)
        lines than its capacity.
        """
        return self.sets * len(self.ways_of_group(name))

    def active_capacity_bytes(self, mode: Mode) -> int:
        """Data bytes reachable in ``mode`` (powered ways only).

        At ULE mode only the ULE-capable group is powered, so a 7+1
        8 KB cache exposes a single 1 KB way — the capacity the
        utilization-threshold scheduling policy compares working sets
        against.
        """
        return self.active_ways(mode) * self.sets * self.line_bytes

    def active_way_mask(self, mode: Mode) -> list[bool]:
        """Per-way powered flags in ``mode``."""
        mask: list[bool] = []
        for group in self.way_groups:
            mask.extend([group.is_active(mode)] * group.ways)
        return mask

    def active_ways(self, mode: Mode) -> int:
        """Number of powered ways in ``mode``."""
        return sum(self.active_way_mask(mode))

    def edc_inline(self, mode: Mode) -> bool:
        """Whether any active group pays inline EDC latency in ``mode``.

        The L1 hit latency is set by the slowest active way, so a single
        inline-EDC group stretches the whole cache's hit latency.
        """
        return any(
            group.edc_inline(mode)
            for group in self.way_groups
            if group.is_active(mode)
        )

    def index_of(self, address: int) -> int:
        """Set index of a byte address."""
        return (address >> self.offset_bits) % self.sets if self.sets else 0

    def tag_of(self, address: int) -> int:
        """Tag value of a byte address (masked to ``tag_bits``)."""
        return (address >> (self.offset_bits + self.index_bits)) & (
            (1 << self.tag_bits) - 1
        )

    def canonical(self) -> dict:
        """Invocation-stable, JSON-able content description.

        Sweep points use this (via :func:`config_digest`) to key result
        caches: two configurations built through different code paths
        but describing the same hardware canonicalize identically.
        """
        return canonical_form(self)

    def digest(self) -> str:
        """SHA-256 content hash of :meth:`canonical`."""
        return config_digest(self)

    def describe(self) -> str:
        """Human-readable one-paragraph summary."""
        groups = ", ".join(
            f"{g.ways}x{g.cell.describe()}" for g in self.way_groups
        )
        policy = (
            "" if self.replacement == "lru" else f", {self.replacement}"
        )
        return (
            f"{self.name}: {self.size_bytes // 1024} KB {self.ways}-way, "
            f"{self.line_bytes} B lines, {self.sets} sets{policy} [{groups}]"
        )


def decode_invalidity(line_bytes: int, sets: int) -> str | None:
    """Why a geometry cannot split addresses into bit fields, or None.

    Both simulators take the line offset, the set index and the tag as
    address bit fields (:meth:`CacheConfig.index_of`, ``tag_of``), so
    the line size and the set count must be powers of two: with 48 sets
    the tag starts above a 6-bit index, and byte addresses 0 and 1536
    (32 B lines) would both decode to set 0, tag 0.
    """
    if line_bytes & (line_bytes - 1):
        return f"line size {line_bytes} B is not a power of two"
    if sets & (sets - 1):
        return f"{sets} sets is not a power of two"
    return None


def validate_disabled_lines(
    disabled_lines, sets: int, ways: int
) -> None:
    """Reject fault-map ``(set, way)`` pairs outside the geometry.

    Both simulation backends call this with identical arguments, so
    they can never drift apart in which fault maps they accept — the
    bit-identical-backends contract starts at validation.
    """
    for set_index, way in disabled_lines:
        if not 0 <= set_index < sets:
            raise ValueError(
                f"disabled line set {set_index} out of range "
                f"(sets={sets})"
            )
        if not 0 <= way < ways:
            raise ValueError(
                f"disabled line way {way} out of range (ways={ways})"
            )


def config_digest(config: CacheConfig | WayGroupConfig) -> str:
    """Stable content hash of a cache or way-group configuration.

    The digest covers every *field* of the configuration — the numeric
    parameters of the geometry, bitcells, protection schemes and
    replacement policy, and also the ``name`` label — but not object
    identity, so it is safe as a cross-invocation cache key.  Callers
    needing label-independent hardware identity should blank the names
    first (see ``repro.explore.candidates.Candidate.digest``).
    """
    return canonical_digest(config)
