"""Set-associative, write-back / write-allocate functional cache.

Pure behavioural model: it tracks which line lives where and produces the
event counts (hits, fills, writebacks — globally and per way group) that
the energy model prices.  Way activation is dynamic: the hybrid wrapper
masks ways in and out as the operating mode changes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import CacheConfig, validate_disabled_lines
from repro.cache.replacement import ReplacementPolicy, make_policy
from repro.cache.stats import CacheStats, TransientOutcome


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access.

    Attributes:
        hit: whether the probe hit.
        way: the hitting way (hit) or the fill way (miss); ``-1`` for a
            bypassed miss (no usable way in the set — every way either
            gated off or disabled by a hard-fault map).
        group: way-group name of ``way`` ("" for a bypass).
        writeback: whether a dirty victim was evicted.
    """

    hit: bool
    way: int
    group: str
    writeback: bool

    @property
    def bypassed(self) -> bool:
        """Whether the miss could not allocate and went to memory."""
        return self.way < 0


class SetAssociativeCache:
    """The behavioural cache core.

    Args:
        config: hybrid cache configuration (geometry + way groups).
        policy: replacement policy name or instance.
        seed: used only by the random policy.
        disabled_lines: hard-fault-map ``(set, way)`` pairs that can
            never hold a line (their way-disable fuse is blown).  A set
            whose every powered way is disabled degrades gracefully:
            accesses miss and bypass to memory (no crash, no fill).
        transients: optional soft-error sampler: an object whose
            ``observe_read_hit(way, set_index, address, access_index,
            dirty)`` returns a :class:`~repro.cache.stats.
            TransientOutcome` or None (the transients layer's
            ``TransientSampler``).  Every *read hit* observes the
            upset draw of its stored word in its scrub interval and is
            classified into the transient counters of
            :class:`~repro.cache.stats.CacheStats` — bit-identically to
            the vectorized engine, which shares the sampler.
    """

    def __init__(
        self,
        config: CacheConfig,
        policy: str | ReplacementPolicy = "lru",
        seed: int = 0,
        disabled_lines: tuple[tuple[int, int], ...] = (),
        transients=None,
    ):
        self.config = config
        if isinstance(policy, str):
            policy = make_policy(policy, config.ways, seed=seed)
        if policy.ways != config.ways:
            raise ValueError("policy sized for a different associativity")
        self.policy = policy
        self.stats = CacheStats()

        sets, ways = config.sets, config.ways
        self._tags: list[list[int | None]] = [
            [None] * ways for _ in range(sets)
        ]
        self._dirty: list[list[bool]] = [[False] * ways for _ in range(sets)]
        self._policy_state = [policy.new_set_state() for _ in range(sets)]
        self._active = [True] * ways
        self._group_names = [
            config.group_of_way(way).name for way in range(ways)
        ]
        validate_disabled_lines(disabled_lines, sets, ways)
        self._disabled: list[list[bool]] = [
            [False] * ways for _ in range(sets)
        ]
        for set_index, way in disabled_lines:
            self._disabled[set_index][way] = True
        self._transients = transients
        self._access_position = 0

    # -------------------------------------------------------------- masks
    def set_active_ways(self, mask: list[bool]) -> None:
        """Enable/disable ways (contents of disabled ways must have been
        flushed by the caller; see :class:`HybridCache`)."""
        if len(mask) != self.config.ways:
            raise ValueError("mask length must equal associativity")
        if not any(mask):
            raise ValueError("at least one way must stay active")
        self._active = list(mask)

    @property
    def active_ways(self) -> list[int]:
        """Indices of currently powered ways."""
        return [w for w, active in enumerate(self._active) if active]

    # ------------------------------------------------------------- lookup
    def _lookup(self, index: int, tag: int) -> int | None:
        row = self._tags[index]
        for way in self.active_ways:
            if row[way] == tag:
                return way
        return None

    def access(self, address: int, is_write: bool) -> AccessResult:
        """Probe the cache with a byte address; allocate on miss."""
        config = self.config
        index = config.index_of(address)
        tag = config.tag_of(address)
        stats = self.stats
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1

        position = self._access_position
        self._access_position += 1

        way = self._lookup(index, tag)
        if way is not None:
            group = self._group_names[way]
            self.policy.on_access(self._policy_state[index], way)
            if is_write:
                stats.write_hits += 1
                stats.group_write_hits[group] += 1
                self._dirty[index][way] = True
            else:
                stats.read_hits += 1
                stats.group_read_hits[group] += 1
                if self._transients is not None:
                    # Only read hits observe stored (exposed) data;
                    # the line's dirtiness *before* this access decides
                    # whether a detected strike can refetch.
                    self._observe_transient(
                        way, index, address, position,
                        self._dirty[index][way],
                    )
            return AccessResult(
                hit=True, way=way, group=group, writeback=False
            )

        # Miss: pick a victim among active ways, write back if dirty.
        if is_write:
            stats.write_misses += 1
        else:
            stats.read_misses += 1
        victim = self._choose_victim(index)
        if victim is None:
            # Every usable way of the set is disabled: the access
            # bypasses to memory (documented graceful degradation).
            stats.bypasses += 1
            return AccessResult(
                hit=False, way=-1, group="", writeback=False
            )
        writeback = (
            self._tags[index][victim] is not None
            and self._dirty[index][victim]
        )
        group = self._group_names[victim]
        if writeback:
            stats.writebacks += 1
            stats.group_writebacks[group] += 1
        self._tags[index][victim] = tag
        self._dirty[index][victim] = is_write
        self.policy.on_fill(self._policy_state[index], victim)
        stats.fills += 1
        stats.group_fills[group] += 1
        return AccessResult(
            hit=False, way=victim, group=group, writeback=writeback
        )

    def _observe_transient(
        self,
        way: int,
        index: int,
        address: int,
        position: int,
        dirty: bool,
    ) -> None:
        """Classify one read hit through the soft-error sampler."""
        outcome = self._transients.observe_read_hit(
            way, index, address, position, dirty
        )
        if outcome is None:
            return
        stats = self.stats
        group = self._group_names[way]
        if outcome is TransientOutcome.CORRECTED:
            stats.transient_corrected += 1
            stats.group_transient_corrected[group] += 1
        elif outcome is TransientOutcome.REFETCH:
            stats.transient_refetches += 1
            stats.group_transient_refetches[group] += 1
        elif outcome is TransientOutcome.DUE:
            stats.transient_due += 1
        else:
            stats.transient_silent += 1

    def _choose_victim(self, index: int) -> int | None:
        disabled = self._disabled[index]
        candidates = [
            way for way in self.active_ways if not disabled[way]
        ]
        if not candidates:
            return None
        # Prefer an empty active way before evicting.
        for way in candidates:
            if self._tags[index][way] is None:
                return way
        return self.policy.victim(self._policy_state[index], candidates)

    # -------------------------------------------------------------- flush
    def flush_ways(self, ways: list[int]) -> int:
        """Invalidate the given ways, returning dirty-line writebacks."""
        writebacks = 0
        for index in range(self.config.sets):
            for way in ways:
                if self._tags[index][way] is not None:
                    if self._dirty[index][way]:
                        writebacks += 1
                        group = self._group_names[way]
                        self.stats.group_writebacks[group] += 1
                    self._tags[index][way] = None
                    self._dirty[index][way] = False
        self.stats.flush_writebacks += writebacks
        self.stats.writebacks += writebacks
        return writebacks

    def resident_lines(self) -> int:
        """Number of valid lines currently held."""
        return sum(
            1
            for row in self._tags
            for tag in row
            if tag is not None
        )
