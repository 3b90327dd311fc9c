"""TraceStore: compressed, content-addressed trace persistence.

The store's contract (see ``repro/workloads/store.py``): round-trips
are exact, entries are content-addressed (name excluded), writes are
idempotent and race-tolerant, and loads come back with the digest
cache pre-seeded.
"""

import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.workloads.store import (
    COLUMNS,
    COMPRESSED_FILE,
    StoredTraceRef,
    TraceStore,
    default_store_root,
)


def _entry_dirs(root) -> list:
    """The published entry directories under a store root."""
    return [path for path in root.glob("*/*") if path.is_dir()]


class TestRoundTrip:
    def test_put_get_round_trip(self, small_trace, tmp_path):
        store = TraceStore(tmp_path)
        ref = store.put(small_trace)
        assert ref == StoredTraceRef(
            name=small_trace.name,
            digest=small_trace.content_digest(),
            length=len(small_trace),
        )
        loaded = store.get(ref)
        assert loaded.name == small_trace.name
        assert len(loaded) == len(small_trace)
        for column in COLUMNS:
            np.testing.assert_array_equal(
                getattr(loaded, column), getattr(small_trace, column)
            )

    def test_digest_cache_seeded_without_rehash(
        self, small_trace, tmp_path
    ):
        """The store address *is* the digest — get() must not re-hash
        megabytes of loaded columns on first access."""
        store = TraceStore(tmp_path)
        ref = store.put(small_trace)
        loaded = store.get(ref)
        assert "_content_digest" in loaded.__dict__
        assert loaded.content_digest() == ref.digest

    def test_refs_pickle_small(self, small_trace, tmp_path):
        """A ref names a trace without carrying its arrays."""
        ref = TraceStore(tmp_path).put(small_trace)
        assert len(pickle.dumps(ref)) < 500


class TestContentAddressing:
    def test_second_put_is_a_hit(self, small_trace, tmp_path):
        store = TraceStore(tmp_path)
        first = store.put(small_trace)
        second = store.put(small_trace)
        assert second == first
        assert len(_entry_dirs(tmp_path)) == 1

    def test_renamed_equal_content_shares_entry(
        self, small_trace, tmp_path
    ):
        """Digests hash arrays only — a rename must not duplicate the
        entry (mirrors the job-key rule)."""
        store = TraceStore(tmp_path)
        ref = store.put(small_trace)
        twin_ref = store.put(replace(small_trace, name="twin"))
        assert twin_ref.digest == ref.digest
        assert twin_ref.name == "twin"
        assert len(_entry_dirs(tmp_path)) == 1

    def test_contains_ref_and_digest(self, small_trace, tmp_path):
        store = TraceStore(tmp_path)
        digest = small_trace.content_digest()
        assert digest not in store
        ref = store.put(small_trace)
        assert ref in store
        assert digest in store
        assert "0" * 64 not in store

    def test_partial_entry_is_not_contained(self, small_trace, tmp_path):
        """A torn entry (directory without its columns file) must read
        as absent, so the next put repairs it instead of serving broken
        loads."""
        store = TraceStore(tmp_path)
        ref = store.put(small_trace)
        entry = store._entry_dir(ref.digest)
        (entry / COMPRESSED_FILE).unlink()
        assert entry.is_dir()
        assert ref not in store
        assert store.put(small_trace) == ref
        assert ref in store


class TestConcurrentWriters:
    def test_lost_publish_race_is_success(
        self, small_trace, tmp_path, monkeypatch
    ):
        """A loser whose rename fails against an already-published
        entry treats the winner's (byte-identical) entry as its own."""
        winner = TraceStore(tmp_path)
        ref = winner.put(small_trace)
        entry = winner._entry_dir(ref.digest)

        loser = TraceStore(tmp_path)
        real_contains = loser.contains
        calls = []

        def racy_contains(digest):
            # The pre-check races: the entry "appears" only after the
            # loser has committed to writing its own staging.
            calls.append(digest)
            if len(calls) == 1:
                return False
            return real_contains(digest)

        monkeypatch.setattr(loser, "contains", racy_contains)
        real_rename = os.rename

        def contended_rename(src, dst, *args, **kwargs):
            if str(dst) == str(entry):
                raise OSError("simulated publish contention")
            return real_rename(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "rename", contended_rename)
        assert loser.put(small_trace) == ref
        assert _entry_dirs(tmp_path) == [entry]

    def test_publish_failure_without_winner_propagates(
        self, small_trace, tmp_path, monkeypatch
    ):
        """No racing winner to blame: the OSError is real and raised,
        and the staging scratch is cleaned up."""
        store = TraceStore(tmp_path)
        digest = small_trace.content_digest()
        entry = store._entry_dir(digest)
        real_rename = os.rename

        def broken_rename(src, dst, *args, **kwargs):
            if str(dst) == str(entry):
                raise OSError("simulated filesystem failure")
            return real_rename(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "rename", broken_rename)
        with pytest.raises(OSError, match="simulated filesystem"):
            store.put(small_trace)
        assert digest not in store
        scratch_dirs = [
            path
            for path in tmp_path.rglob(".*")
            if path.is_dir() and path.name.startswith(".")
        ]
        assert scratch_dirs == []


class TestDefaultRoot:
    def test_env_override_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "traces"))
        assert default_store_root() == tmp_path / "traces"

    def test_fallback_is_per_user_tempdir(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        root = default_store_root()
        assert root.name.startswith("repro-traces-")
