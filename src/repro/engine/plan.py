"""Per-trace precomputation shared across batched simulations.

The expensive, *variant-independent* front half of the vectorized engine
(:mod:`repro.engine.vectorized`) — the bit-field address decode, the
stable per-set sort (a radix sort on narrow keys) and the run-boundary
collapse — depends only on the access stream and the cache *geometry*
(offset/index/tag split), not on the operating mode, way mask, fault
map, operating point or transient spec.

A :class:`StreamPlan` captures that front half once so that a batch of
jobs sharing a trace (a Vdd sweep, a die population, an EDC ablation)
replays it for free: the batching layer (:mod:`repro.engine.batch`)
builds one plan per ``(stream, geometry)`` pair and evaluates every
variant's kernel against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.config import CacheConfig
from repro.util.profiling import phase


def geometry_key(config: CacheConfig) -> tuple[int, int, int, int]:
    """The part of a cache configuration a :class:`StreamPlan` depends on.

    Two configurations with equal keys decode every address to the same
    (set, tag) pair, so they can share a plan — way counts, protection
    schemes and energy parameters do not enter the decode.
    """
    return (
        config.offset_bits,
        config.index_bits,
        config.tag_bits,
        config.sets,
    )


@dataclass(frozen=True)
class StreamPlan:
    """Decoded, set-sorted, run-collapsed view of one access stream.

    All arrays are in *per-set stream order* (stable sort by set index,
    program order preserved within a set) except ``order``, which maps
    stream positions back to program-order positions.

    Attributes:
        n: total accesses.
        total_writes: accesses flagged as writes.
        order: the stable sort's permutation (stream position ->
            program position); the transient post-pass needs
            program-order positions for scrub-interval indexing.
        set_stream / tag_stream / write_stream: per-access decode in
            stream order (set indices in the narrowest unsigned type
            that holds them, tags as ``uint64``).
        starts: stream positions where runs (maximal same-set,
            same-tag spans) begin.
        run_tag / run_len / run_writes: per-run tag, length and write
            count.
        run_head_write: whether each run's first access is a write.
        run_new_set: whether each run opens a new set segment.
        run_set: the set index of each run.
    """

    n: int
    total_writes: int
    order: np.ndarray
    set_stream: np.ndarray
    tag_stream: np.ndarray
    write_stream: np.ndarray
    starts: np.ndarray
    run_tag: np.ndarray
    run_len: np.ndarray
    run_writes: np.ndarray
    run_head_write: np.ndarray
    run_new_set: np.ndarray
    run_set: np.ndarray


def _decode(
    config: CacheConfig, addresses: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``index_of`` / ``tag_of`` over a whole address array.

    The set index is a mask, not a modulo: :class:`CacheConfig` admits
    only power-of-two set counts, for which the two agree.  It comes
    back in the narrowest unsigned type that holds every set index, the
    tag as ``uint64``.
    """
    addr = np.ascontiguousarray(addresses, dtype=np.uint64)
    index = addr >> np.uint64(config.offset_bits)
    index &= np.uint64(config.sets - 1)
    tag_shift = np.uint64(config.offset_bits + config.index_bits)
    tag_mask = np.uint64((1 << config.tag_bits) - 1)
    tag = (addr >> tag_shift) & tag_mask
    return index.astype(np.min_scalar_type(config.sets - 1)), tag


def build_stream_plan(
    config: CacheConfig,
    addresses: np.ndarray,
    is_write: np.ndarray | None = None,
) -> StreamPlan:
    """Precompute the variant-independent half of a vectorized run.

    Args:
        config: any configuration with the target geometry (only
            :func:`geometry_key` fields are read).
        addresses: byte addresses in program order (must be non-empty).
        is_write: per-access write flags (None = all reads).

    Returns:
        The plan; reusable by every simulation of this stream against
        any configuration sharing the geometry.
    """
    with phase("batch.plan"):
        n = len(addresses)
        if n == 0:
            raise ValueError("cannot plan an empty access stream")
        if is_write is None:
            write = np.zeros(n, dtype=bool)
        else:
            write = np.ascontiguousarray(is_write, dtype=bool)
            if len(write) != n:
                raise ValueError("is_write length mismatch")

        index, tag = _decode(config, addresses)

        # Per-set streams: stable sort keeps program order per set.  On
        # the narrow set indices numpy's stable sort is a radix sort (for
        # keys of 16 bits or fewer), and a stable sort's permutation is
        # unique, so ``order`` is the one a wide key would give.
        order = np.argsort(index, kind="stable")
        set_stream = index[order]
        tag_stream = tag[order]
        write_stream = write[order]

        # Run boundaries: a new set segment or a tag change.
        new_set = np.empty(n, dtype=bool)
        new_set[0] = True
        new_set[1:] = set_stream[1:] != set_stream[:-1]
        run_start = new_set.copy()
        run_start[1:] |= tag_stream[1:] != tag_stream[:-1]
        starts = np.flatnonzero(run_start)

        return StreamPlan(
            n=n,
            total_writes=int(np.count_nonzero(write)),
            order=order,
            set_stream=set_stream,
            tag_stream=tag_stream,
            write_stream=write_stream,
            starts=starts,
            run_tag=tag_stream[starts],
            run_len=np.diff(np.append(starts, n)),
            run_writes=np.add.reduceat(
                write_stream.astype(np.int64), starts
            ),
            run_head_write=write_stream[starts],
            run_new_set=new_set[starts],
            run_set=set_stream[starts],
        )
