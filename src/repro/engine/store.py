"""Digest-sharded, content-addressed result store for concurrent writers.

The engine's on-disk result cache: one store that many processes —
library sessions, pool workers, service replicas, CI jobs — read and
write at once without any file locks::

    <root>/<key[:2]>/<key>.pkl

Sharding by the first digest byte keeps directory fan-out bounded at
256 entries per level however many millions of results accumulate, so
``readdir`` on any one shard stays cheap on every filesystem.

Concurrency rests on the same two properties as the columnar trace
store (:mod:`repro.workloads.store`):

* **Content addressing.**  A key is a SHA-256 over everything that
  determines the result (:func:`repro.engine.jobs.job_key`), so two
  writers racing on one key are by construction writing identical
  bytes — last-rename-wins is correct, not merely tolerated.
* **Atomic-rename publish.**  Values are serialized to a scratch file
  in the destination shard and published with one :func:`os.replace`;
  a reader can observe the old entry or the new one, never a torn
  half-write.  A writer that crashes mid-scratch leaves only a
  ``*.tmp`` file that :meth:`ShardedResultStore.compact` sweeps up.

A corrupt or truncated entry (filesystem hiccup, killed writer on a
filesystem without atomic rename) is treated as a warned **miss**: the
caller simply recomputes and overwrites it.  The store therefore never
returns partial values — an entry either unpickles completely or does
not exist, which is the invariant the service's exactly-once tests
lean on.

The store is value-agnostic (it pickles whatever it is given);
:func:`generation_store` places it under the code-fingerprint
generation directory that sessions and the service share.
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

#: File suffix of published entries.
ENTRY_SUFFIX = ".pkl"

#: File suffix of in-flight scratch files (never read, swept by compact).
SCRATCH_SUFFIX = ".tmp"

#: Results a store-backed :class:`ResultCache` keeps in memory: the
#: store holds them all, so the memo only spares recent ones a read.
MEMO_LIMIT = 4096

#: The tier that answered a :meth:`ResultCache.get`.
MEMO, STORE = "memo", "store"


@dataclass(frozen=True)
class StoreSummary:
    """A point-in-time inventory of a store directory.

    Attributes:
        entries: published (readable) entries.
        payload_bytes: total size of the published entries.
        shards: shard directories in use.
        scratch_files: leftover in-flight scratch files (crashed or
            racing writers); :meth:`ShardedResultStore.compact`
            removes the stale ones.
    """

    entries: int
    payload_bytes: int
    shards: int
    scratch_files: int


@dataclass(frozen=True)
class CompactionReport:
    """What one :meth:`ShardedResultStore.compact` pass cleaned up.

    Attributes:
        scratch_removed: abandoned ``*.tmp`` files deleted.
        corrupt_removed: published entries that failed to unpickle and
            were deleted (each one also warns).
        empty_shards_removed: shard directories left empty afterwards.
    """

    scratch_removed: int
    corrupt_removed: int
    empty_shards_removed: int


class ShardedResultStore:
    """Lock-free, digest-sharded pickle store shared by many writers.

    Parameters
    ----------
    root : path-like
        Store root; created on first use.  Safe to share between any
        number of concurrent processes — writers publish with atomic
        renames and never block each other.

    Attributes
    ----------
    stats : dict
        Operation counters for this handle — ``gets``, ``hits``,
        ``misses``, ``corrupt`` (entries discarded as warned misses),
        ``puts`` (entries published) — exposed so dedup accounting in
        the service and the concurrency tests can assert where results
        came from.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.stats = {
            "gets": 0,
            "hits": 0,
            "misses": 0,
            "corrupt": 0,
            "puts": 0,
        }

    # ------------------------------------------------------------ layout
    def path_for(self, key: str) -> Path:
        """The published path of ``key`` (whether or not it exists)."""
        return self.root / key[:2] / f"{key}{ENTRY_SUFFIX}"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def keys(self) -> Iterator[str]:
        """Iterate over the keys of every published entry."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.glob(f"*{ENTRY_SUFFIX}")):
                yield entry.name[: -len(ENTRY_SUFFIX)]

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # --------------------------------------------------------- get / put
    def get(self, key: str) -> Any | None:
        """The stored value for ``key``, or None.

        A corrupt or truncated entry is a *warned* miss — the caller
        recomputes and overwrites it — so damage from a crashed writer
        or filesystem hiccup heals itself while staying visible.
        """
        self.stats["gets"] += 1
        path = self.path_for(key)
        try:
            payload = path.read_bytes()
        except OSError:
            self.stats["misses"] += 1
            return None
        try:
            value = pickle.loads(payload)
        except Exception as error:
            self.stats["corrupt"] += 1
            self.stats["misses"] += 1
            warnings.warn(
                f"discarding corrupt result-cache entry {path.name} "
                f"({type(error).__name__}: {error}); treated as a miss",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        self.stats["hits"] += 1
        return value

    def get_bytes(self, key: str) -> bytes | None:
        """The raw pickle payload of ``key``, or None.

        The service API ships results over the wire as the *stored*
        bytes, so what a client unpickles is byte-identical to what a
        library-mode session would have cached — the byte-identity
        contract is checked against this exact payload.  Entries that
        fail to unpickle are discarded as in :meth:`get`.
        """
        payload_path = self.path_for(key)
        try:
            payload = payload_path.read_bytes()
        except OSError:
            return None
        try:
            pickle.loads(payload)
        except Exception:
            # Route through get() for the counting + warning behaviour.
            self.get(key)
            return None
        return payload

    def put(self, key: str, value: Any) -> bool:
        """Publish ``value`` under ``key`` with one atomic rename.

        Concurrent writers need no coordination: keys are content
        hashes, so racers serialize identical bytes and whichever
        rename lands last changes nothing.  Returns True when this
        call published the entry, False when it was already present
        (the put still refreshed it — idempotent either way).
        """
        path = self.path_for(key)
        existed = path.exists()
        path.parent.mkdir(parents=True, exist_ok=True)
        scratch = path.with_name(
            f"{path.name}.{os.getpid()}-{id(object()):x}{SCRATCH_SUFFIX}"
        )
        scratch.write_bytes(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        )
        os.replace(scratch, path)
        self.stats["puts"] += 1
        return not existed

    # ------------------------------------------------- stats / compaction
    def summary(self) -> StoreSummary:
        """Inventory the store: entries, bytes, shards, scratch files."""
        entries = payload_bytes = shards = scratch = 0
        if self.root.is_dir():
            for shard in self.root.iterdir():
                if not shard.is_dir():
                    continue
                shards += 1
                for item in shard.iterdir():
                    if item.name.endswith(SCRATCH_SUFFIX):
                        scratch += 1
                    elif item.name.endswith(ENTRY_SUFFIX):
                        entries += 1
                        payload_bytes += item.stat().st_size
        return StoreSummary(
            entries=entries,
            payload_bytes=payload_bytes,
            shards=shards,
            scratch_files=scratch,
        )

    def compact(self, *, verify: bool = False) -> CompactionReport:
        """Sweep abandoned scratch files (and, optionally, bad entries).

        Removes every leftover ``*.tmp`` scratch file — debris from
        writers that died between serialize and publish — and prunes
        shard directories left empty.  With ``verify=True`` every
        published entry is additionally test-unpickled and corrupt
        ones are deleted (each deletion warns), so a damaged store can
        be healed in one pass instead of lazily on access.
        """
        scratch_removed = corrupt_removed = empty_removed = 0
        if not self.root.is_dir():
            return CompactionReport(0, 0, 0)
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for item in sorted(shard.iterdir()):
                if item.name.endswith(SCRATCH_SUFFIX):
                    try:
                        item.unlink()
                        scratch_removed += 1
                    except OSError:  # pragma: no cover - racing sweeper
                        pass
                elif verify and item.name.endswith(ENTRY_SUFFIX):
                    try:
                        pickle.loads(item.read_bytes())
                    except Exception as error:
                        warnings.warn(
                            f"compact: removing corrupt entry "
                            f"{item.name} ({type(error).__name__})",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        item.unlink(missing_ok=True)
                        corrupt_removed += 1
            try:
                shard.rmdir()
                empty_removed += 1
            except OSError:
                pass  # non-empty: the normal case
        return CompactionReport(
            scratch_removed=scratch_removed,
            corrupt_removed=corrupt_removed,
            empty_shards_removed=empty_removed,
        )


class ResultCache:
    """The one result path: an in-memory memo over an optional store.

    With a store, the memo keeps the :data:`MEMO_LIMIT` most recently
    used results; without one, memory is the only copy, so nothing is
    dropped.  The memo is locked: the scheduler's workers publish while
    its submitters look up.
    """

    def __init__(self, store: ShardedResultStore | None = None):
        self.store = store
        self._memo: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> tuple[Any, str] | None:
        """``(value, MEMO or STORE)``, the memo asked first; None on a miss."""
        with self._lock:
            value = self._memo.get(key)
            if value is not None:
                self._memo.move_to_end(key)
                return value, MEMO
        value = self.store.get(key) if self.store is not None else None
        if value is None:
            return None
        self._remember(key, value)
        return value, STORE

    def put(self, key: str, value: Any) -> None:
        """Publish ``value`` to the store, then to the memo.

        A job reads as done only after this returns, and a store write
        that raises leaves nothing in memory.
        """
        if self.store is not None:
            self.store.put(key, value)
        self._remember(key, value)

    def _remember(self, key: str, value: Any) -> None:
        with self._lock:
            self._memo[key] = value
            if self.store is not None and len(self._memo) > MEMO_LIMIT:
                self._memo.popitem(last=False)


def generation_store(cache_dir: str | os.PathLike) -> ShardedResultStore:
    """The store of this code generation under a cache directory.

    Entries live in ``<cache_dir>/gen-<fingerprint[:16]>``, named by
    the package-source fingerprint: any source edit changes every job
    key (see :func:`repro.engine.jobs.job_key`), orphaning prior
    entries, and grouping them per generation keeps stale pickles
    identifiable and trivially prunable (``rm -r cache/gen-*`` minus
    the newest).  A library session's ``cache_dir=`` and
    ``repro serve --cache-dir`` on one directory share one store.
    """
    # Deferred: importing the job layer loads the whole model, which
    # the store itself never needs.
    from repro.engine.jobs import _code_fingerprint

    root = Path(cache_dir) / f"gen-{_code_fingerprint()[:16]}"
    root.mkdir(parents=True, exist_ok=True)
    return ShardedResultStore(root)
