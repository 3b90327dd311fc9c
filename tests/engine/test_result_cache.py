"""ResultCache: the memo → store lookup and store → memo publish."""

import pytest

from repro.engine import store as store_module
from repro.engine.store import (
    MEMO,
    STORE,
    ResultCache,
    ShardedResultStore,
)


class FailingStore(ShardedResultStore):
    """A store whose writes always raise, as on a full disk."""

    def put(self, key, value):
        raise OSError("No space left on device")


@pytest.fixture()
def small_memo(monkeypatch):
    """Bound a store-backed memo at two results."""
    monkeypatch.setattr(store_module, "MEMO_LIMIT", 2)


class TestLookupOrder:
    def test_miss_without_store(self):
        assert ResultCache().get("k") is None

    def test_put_then_get_is_a_memo_hit(self, tmp_path):
        cache = ResultCache(ShardedResultStore(tmp_path))
        cache.put("k", ("value", 1))
        assert cache.get("k") == (("value", 1), MEMO)
        assert cache.store.stats["gets"] == 0

    def test_store_answers_a_memo_miss_then_the_memo_does(self, tmp_path):
        ShardedResultStore(tmp_path).put("k", ("value", 1))
        cache = ResultCache(ShardedResultStore(tmp_path))
        assert cache.get("k") == (("value", 1), STORE)
        assert cache.get("k") == (("value", 1), MEMO)
        assert cache.store.stats["gets"] == 1

    def test_miss_in_both(self, tmp_path):
        cache = ResultCache(ShardedResultStore(tmp_path))
        assert cache.get("k") is None
        assert cache.store.stats["misses"] == 1


class TestPublish:
    def test_store_is_written_before_the_memo(self, tmp_path):
        cache = ResultCache(FailingStore(tmp_path))
        with pytest.raises(OSError):
            cache.put("k", "v")
        assert cache._memo == {}
        assert cache.get("k") is None

    def test_put_publishes_to_the_store(self, tmp_path):
        cache = ResultCache(ShardedResultStore(tmp_path))
        cache.put("k", "v")
        assert ShardedResultStore(tmp_path).get("k") == "v"


class TestMemoBound:
    def test_bound_applies_with_a_store(self, tmp_path, small_memo):
        cache = ResultCache(ShardedResultStore(tmp_path))
        for key in "abc":
            cache.put(key, key.upper())
        assert list(cache._memo) == ["b", "c"]
        assert cache.get("a") == ("A", STORE)

    def test_no_bound_without_a_store(self, small_memo):
        cache = ResultCache()
        for key in "abcde":
            cache.put(key, key.upper())
        assert [cache.get(key) for key in "abcde"] == [
            (key.upper(), MEMO) for key in "abcde"
        ]

    def test_a_hit_refreshes_recency(self, tmp_path, small_memo):
        cache = ResultCache(ShardedResultStore(tmp_path))
        cache.put("a", "A")
        cache.put("b", "B")
        assert cache.get("a") == ("A", MEMO)
        cache.put("c", "C")
        assert list(cache._memo) == ["a", "c"]
        assert cache.get("b") == ("B", STORE)
