"""Sharded result store: layout, healing, compaction — and the
N-process concurrency stress test (exactly-once effective semantics)."""

from __future__ import annotations

import hashlib
import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.engine.store import ShardedResultStore


def _key(label) -> str:
    return hashlib.sha256(repr(label).encode()).hexdigest()


class TestLayout:
    def test_entries_shard_by_digest_prefix(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        key = _key("a")
        store.put(key, {"value": 1})
        assert (tmp_path / key[:2] / f"{key}.pkl").is_file()
        assert key in store
        assert list(store.keys()) == [key]

    def test_get_roundtrip_and_counters(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        key = _key("roundtrip")
        assert store.get(key) is None
        store.put(key, [1, 2, 3])
        assert store.get(key) == [1, 2, 3]
        assert store.stats["misses"] == 1
        assert store.stats["hits"] == 1
        assert store.stats["puts"] == 1

    def test_put_is_idempotent(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        key = _key("idem")
        assert store.put(key, "x") is True
        assert store.put(key, "x") is False
        assert len(store) == 1

    def test_get_bytes_matches_stored_pickle(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        key = _key("bytes")
        value = {"nested": (1, 2.5, "three")}
        store.put(key, value)
        payload = store.get_bytes(key)
        assert payload == store.path_for(key).read_bytes()
        assert pickle.loads(payload) == value

    def test_summary_counts_entries_and_bytes(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        for index in range(5):
            store.put(_key(index), index)
        summary = store.summary()
        assert summary.entries == 5
        assert summary.payload_bytes > 0
        assert summary.scratch_files == 0


class TestHealing:
    def test_corrupt_entry_is_warned_miss(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        key = _key("corrupt")
        store.put(key, "good")
        store.path_for(key).write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="treated as a miss"):
            assert store.get(key) is None
        assert store.stats["corrupt"] == 1
        # Recompute-and-overwrite heals it.
        store.put(key, "good again")
        assert store.get(key) == "good again"

    def test_truncated_entry_is_warned_miss(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        key = _key("truncated")
        store.put(key, list(range(100)))
        path = store.path_for(key)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.warns(RuntimeWarning, match="corrupt result-cache"):
            assert store.get(key) is None

    def test_get_bytes_never_returns_torn_payload(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        key = _key("torn")
        store.put(key, "value")
        path = store.path_for(key)
        path.write_bytes(path.read_bytes()[: -3])
        with pytest.warns(RuntimeWarning):
            assert store.get_bytes(key) is None

    def test_compact_sweeps_scratch_and_corrupt(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        keep = _key("keep")
        store.put(keep, "kept")
        bad = _key("bad")
        store.put(bad, "will corrupt")
        store.path_for(bad).write_bytes(b"\x80garbage")
        scratch = store.path_for(keep).with_name("leftover.pkl.1.tmp")
        scratch.write_bytes(b"half-written")
        with pytest.warns(RuntimeWarning, match="removing corrupt"):
            report = store.compact(verify=True)
        assert report.scratch_removed == 1
        assert report.corrupt_removed == 1
        assert store.get(keep) == "kept"
        assert list(store.keys()) == [keep]

    def test_compact_without_verify_keeps_entries(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        store.put(_key("z"), "z")
        report = store.compact()
        assert report.corrupt_removed == 0
        assert len(store) == 1


# ----------------------------------------------------------------- stress
#: Overlapping per-process job sets: process p handles keys p..p+29, so
#: every key is written by up to PROCS processes concurrently.
PROCS = 4
KEYS_PER_PROC = 30
OVERLAP_STRIDE = 10


def _hammer(args) -> dict:
    """Worker: write an overlapping key range, then read it all back."""
    root, rank = args
    store = ShardedResultStore(root)
    written = 0
    first = rank * OVERLAP_STRIDE
    for index in range(first, first + KEYS_PER_PROC):
        key = _key(("stress", index))
        # The value depends only on the key (content addressing): any
        # interleaving of winners leaves identical bytes behind.
        value = {"index": index, "payload": list(range(index % 7))}
        if store.put(key, value):
            written += 1
        got = store.get(key)
        assert got == value, f"rank {rank} read torn entry {index}"
    return {"rank": rank, "written": written, **store.stats}


class TestConcurrencyStress:
    def test_n_processes_hammer_one_store(self, tmp_path):
        """Exactly-once effective semantics under process concurrency.

        Four processes write overlapping key ranges into one store
        directory with no coordination.  Afterwards every key must be
        readable and uncorrupted, no scratch debris may survive a
        compact, and the put counters must show real cross-process
        dedup (puts beyond the unique-key count are idempotent
        republishes, never divergent values).
        """
        unique = {
            _key(("stress", index))
            for rank in range(PROCS)
            for index in range(
                rank * OVERLAP_STRIDE,
                rank * OVERLAP_STRIDE + KEYS_PER_PROC,
            )
        }
        with ProcessPoolExecutor(max_workers=PROCS) as pool:
            reports = list(
                pool.map(
                    _hammer,
                    [(os.fspath(tmp_path), rank) for rank in range(PROCS)],
                )
            )
        store = ShardedResultStore(tmp_path)
        # Every key readable, no torn/corrupt entries anywhere.
        found = set()
        for key in store.keys():
            value = store.get(key)
            assert value is not None
            assert value["payload"] == list(range(value["index"] % 7))
            found.add(key)
        assert found == unique
        assert store.stats["corrupt"] == 0
        # Dedup counter sanity: "written new" claims cannot exceed the
        # unique key count per key (first-writer accounting is racy by
        # design, but every process must have written at least the
        # keys nobody else covered).
        total_written = sum(report["written"] for report in reports)
        assert total_written >= len(unique)  # every key published at least once
        assert all(report["corrupt"] == 0 for report in reports)
        # No scratch debris: all writers published cleanly.
        assert store.summary().scratch_files == 0
