"""Hybrid-operation cache: mode switching over the set-associative core.

At HP mode every way is powered; on the switch to ULE mode the HP ways are
flushed (dirty lines written back) and gated off — "the processor itself is
responsible for gating or ungating the corresponding cache ways (or
corresponding EDC block) on a Vcc change" (Section III-B).  Switching back
re-enables the HP ways empty.
"""

from __future__ import annotations

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.replacement import ReplacementPolicy
from repro.cache.setassoc import AccessResult, SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.tech.operating import Mode


class HybridCache:
    """A set-associative cache with HP/ULE way gating."""

    def __init__(
        self,
        config: CacheConfig,
        policy: str | ReplacementPolicy = "lru",
        mode: Mode = Mode.HP,
        seed: int = 0,
        disabled_lines: tuple[tuple[int, int], ...] = (),
        transients=None,
    ):
        self.config = config
        self.core = SetAssociativeCache(
            config,
            policy=policy,
            seed=seed,
            disabled_lines=disabled_lines,
            transients=transients,
        )
        self.mode_switches = 0
        self._mode = mode
        self.core.set_active_ways(config.active_way_mask(mode))

    @property
    def mode(self) -> Mode:
        """The current operating mode."""
        return self._mode

    @property
    def stats(self):
        """The underlying counters."""
        return self.core.stats

    def access(self, address: int, is_write: bool) -> AccessResult:
        """Probe/allocate in the current mode."""
        return self.core.access(address, is_write)

    def set_mode(self, mode: Mode) -> int:
        """Switch operating mode; returns writebacks caused by the flush.

        Ways leaving the powered set are flushed before gating; ways
        joining it come back empty (their contents were lost to gating).
        """
        if mode is self._mode:
            return 0
        old_mask = self.config.active_way_mask(self._mode)
        new_mask = self.config.active_way_mask(mode)
        leaving = [
            way
            for way, (was, now) in enumerate(zip(old_mask, new_mask))
            if was and not now
        ]
        entering = [
            way
            for way, (was, now) in enumerate(zip(old_mask, new_mask))
            if now and not was
        ]
        writebacks = self.core.flush_ways(leaving) if leaving else 0
        if entering:
            # Gated ways lost state; make sure they rejoin empty.
            self.core.flush_ways(entering)
        self._mode = mode
        self.core.set_active_ways(new_mask)
        self.mode_switches += 1
        return writebacks

    def active_ways(self) -> list[int]:
        """Powered way indices in the current mode."""
        return self.core.active_ways


def simulate_reference(
    config: CacheConfig,
    mode: Mode,
    addresses: np.ndarray,
    is_write: np.ndarray | None = None,
    policy: str | ReplacementPolicy = "lru",
    seed: int = 0,
    disabled_lines: tuple[tuple[int, int], ...] = (),
    transients=None,
) -> CacheStats:
    """Stream ``addresses`` through a fresh cache in ``mode``.

    The behavioural per-access loop (any replacement policy): the
    default simulator of :meth:`repro.cpu.chip.Chip.run` and the one
    the engine runs for every policy but LRU.  ``is_write`` None = all
    reads.
    """
    cache = HybridCache(
        config,
        policy=policy,
        mode=mode,
        seed=seed,
        disabled_lines=disabled_lines,
        transients=transients,
    )
    if is_write is None:
        for address in addresses:
            cache.access(int(address), is_write=False)
    else:
        for address, write in zip(addresses, is_write):
            cache.access(int(address), is_write=bool(write))
    return cache.stats
