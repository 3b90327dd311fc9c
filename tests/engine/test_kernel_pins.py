"""Byte pins of the vectorized kernels' result objects.

Stored results and service payloads pickle :class:`CacheStats`, so the
*insertion order* of each per-group counter map is part of the output
bytes, not only its contents.  The equivalence suites compare counters
by value.  The reference model cannot serve as the byte oracle: it
walks accesses in program order and the kernels walk them set by set,
so the two can meet a counter's groups in different orders (the 4+4 HP
case below does).  These pins hold the kernels' own bytes: each case
hashes ``pickle.dumps(simulate_trace_vectorized(...))``.

The streams are synthetic (a seeded numpy generator), so a pin moves
only when the kernel's result bytes move.  A digest change means every
stored result computed by the kernel changes shape: fix the kernel, do
not re-pin, unless the change is deliberate and ``ENGINE_CACHE_VERSION``
moves with it.
"""

import hashlib
import pickle

import numpy as np
import pytest

from repro.core.architect import build_cache_pair
from repro.engine.vectorized import simulate_trace_vectorized
from repro.tech.operating import Mode, operating_point_for
from repro.transients import TransientSpec, make_sampler

#: sha256 of the pickled ``CacheStats`` of each case below.
PINS = {
    "7+1-hp": (
        "3b98d0779bb49a6cdf44387204351ba6"
        "07c96b3f2869dd3819f7a37a316a2d52"
    ),
    "7+1-ule": (
        "f317f376e3b3dda560e59aa95851a89b"
        "8288d1c7ceb0eecd1b0c5de91a3ba20f"
    ),
    "4+4-hp": (
        "7cf83c30817990765879699e498668b2"
        "8eec189cc16e84fb7710759b2171384b"
    ),
    "4+4-ule": (
        "33b8a8d1e8526802ff31c164f72bb115"
        "1a6a49ef06c10c121250d52d24c17bc6"
    ),
    "7+1-hp-first-hit-in-ule": (
        "d0351624ffefcf35629b38ae0f58a39f"
        "0d2d456b9383979e79113a05625c7364"
    ),
    "7+1-hp-fault-map": (
        "7142c357ef32238b1279375c67586daa"
        "ba62f261bbc9e5fae6e4e377017ebd9f"
    ),
    "4+4-ule-fault-map": (
        "c95c0da94705aa6744e676cef9a056fd"
        "6298a86c3fdb786ff3e5a09c045afe14"
    ),
    "7+1-hp-transients": (
        "59b850c916ff502a13eb32b722e2b469"
        "b55c6fa7c8005518363ac64b217bdf87"
    ),
}


def _stream(seed: int, operations: int = 6_000):
    """A mixed-locality stream: hot lines, a sequential sweep and noise.

    Hot lines give hit runs in every way, the sweep evicts them (dirty
    ones write back), and the noise keeps every set busy.
    """
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 1 << 12, size=operations, dtype=np.uint64)
    sweep = np.arange(operations, dtype=np.uint64) * np.uint64(8)
    noise = rng.integers(0, 1 << 18, size=operations, dtype=np.uint64)
    pick = rng.integers(0, 3, size=operations)
    addresses = np.where(pick == 0, hot, np.where(pick == 1, sweep, noise))
    return addresses.astype(np.uint64), rng.random(operations) < 0.3


def _first_hit_in_ule_stream(config):
    """Fill every way of set 0, then hit the ULE way before any HP way.

    At HP mode the ways fill in order, so the eighth line lands in the
    ULE way: ``group_fills`` meets "hp" first, ``group_read_hits`` and
    ``group_write_hits`` meet "ule" first.
    """
    stride = config.sets * config.line_bytes
    lines = [tag * stride for tag in range(config.ways)]
    addresses = lines + [lines[-1], lines[0], lines[-1], lines[1]]
    is_write = [False] * config.ways + [False, False, True, True]
    return (
        np.array(addresses, dtype=np.uint64),
        np.array(is_write, dtype=bool),
    )


def _dead_set_map(config, mode):
    """Set 3 loses every powered way; set 5 loses all but one."""
    actives = [
        way for way, on in enumerate(config.active_way_mask(mode)) if on
    ]
    dead = tuple((3, way) for way in actives)
    partial = tuple((5, way) for way in actives[1:])
    return dead + partial


def _case(design_a, name):
    split, mode_name = name.split("-")[:2]
    hp_ways, ule_ways = (int(part) for part in split.split("+"))
    mode = Mode.HP if mode_name == "hp" else Mode.ULE
    _, config = build_cache_pair(
        design_a, hp_ways=hp_ways, ule_ways=ule_ways
    )
    kwargs = {}
    if name.endswith("first-hit-in-ule"):
        addresses, is_write = _first_hit_in_ule_stream(config)
    else:
        addresses, is_write = _stream(seed=len(name))
    if name.endswith("fault-map"):
        kwargs["disabled_lines"] = _dead_set_map(config, mode)
    if name.endswith("transients"):
        spec = TransientSpec(
            acceleration=1e17, scrub_interval_seconds=1e-4, seed=7
        )
        kwargs["transients"] = make_sampler(
            config, mode, operating_point_for(mode), spec, "dl1"
        )
    return config, mode, addresses, is_write, kwargs


@pytest.mark.parametrize("name", sorted(PINS))
def test_kernel_result_bytes_are_pinned(design_a, name):
    config, mode, addresses, is_write, kwargs = _case(design_a, name)
    stats = simulate_trace_vectorized(
        config, mode, addresses, is_write, **kwargs
    )
    digest = hashlib.sha256(
        pickle.dumps(stats, pickle.HIGHEST_PROTOCOL)
    ).hexdigest()
    assert digest == PINS[name], (name, digest)


def test_first_hit_case_orders_groups_differently(design_a):
    """The hand-built case really has per-counter key orders that differ
    (so its pin holds the order of first events, not just the counts)."""
    config, mode, addresses, is_write, _ = _case(
        design_a, "7+1-hp-first-hit-in-ule"
    )
    stats = simulate_trace_vectorized(config, mode, addresses, is_write)
    assert list(stats.group_fills) == ["hp", "ule"]
    assert list(stats.group_read_hits) == ["ule", "hp"]
    assert list(stats.group_write_hits) == ["ule", "hp"]


def test_cases_cover_every_counter(design_a):
    """The random cases reach hits, fills and writebacks in both groups,
    bypasses under the fault maps and upsets under the transient spec."""
    totals = {
        "read_hits": set(), "write_hits": set(), "fills": set(),
        "writebacks": set(),
    }
    bypasses = corrected = 0
    for name in PINS:
        config, mode, addresses, is_write, kwargs = _case(design_a, name)
        stats = simulate_trace_vectorized(
            config, mode, addresses, is_write, **kwargs
        )
        for counter, groups in totals.items():
            groups.update(getattr(stats, f"group_{counter}"))
        bypasses += stats.bypasses
        corrected += stats.transient_affected
    for groups in totals.values():
        assert groups == {"hp", "ule"}
    assert bypasses > 0
    assert corrected > 0
