"""Content-addressed trace storage with a named catalog.

The store behind trace ingestion (``repro ingest``): a
:class:`repro.cpu.trace.Trace` is a struct-of-arrays record, and this
module persists its five columns, zlib-compressed in one file, under a
directory named by the trace's content digest::

    <root>/<digest[:2]>/<digest>/columns.npz

Entries decompress into memory on :meth:`TraceStore.get`.

On top of the content-addressed entries sits a **catalog**
(``<root>/catalog.json``): a name → provenance index of ingested
traces (source-file digest, format, parser version), published with
the same scratch-file + atomic-replace discipline as the entries.
:func:`repro.workloads.source.IngestedSource` resolves names through
it, and ``repro traces list/verify`` renders and audits it.

The layout buys two things:

* **Content addressing.**  Two traces with equal arrays share one store
  entry whatever they are called, mirroring the engine's job-key rule
  (:func:`repro.engine.jobs.job_key` hashes the same digest).
* **Idempotent, concurrent-safe writes.**  Entries are written to a
  scratch directory and published with one atomic rename; losing a
  publish race to another writer is success, not an error.

The store is append-only and entries are immutable — nothing ever
rewrites a published entry.  Catalog writes are last-writer-wins
read-modify-write; entries themselves are never mutated, so a lost
catalog race is repaired by re-registering.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.cpu.trace import Trace

#: The five trace columns, in the order ``Trace`` declares them.
COLUMNS = ("pc", "kind", "addr", "dep_next", "redirect")

#: File name of an entry's compressed columns.
COMPRESSED_FILE = "columns.npz"

#: File name of the named-trace catalog at the store root.
CATALOG_FILE = "catalog.json"


def default_store_root() -> Path:
    """The trace-store root used when none is configured.

    ``$REPRO_TRACE_STORE`` wins when set; otherwise a per-user
    directory under the system temp dir, so unrelated users on a
    shared host never contend on permissions.
    """
    env = os.environ.get("REPRO_TRACE_STORE")
    if env:
        return Path(env)
    uid = getattr(os, "getuid", lambda: "shared")()
    return Path(tempfile.gettempdir()) / f"repro-traces-{uid}"


@dataclass(frozen=True)
class CatalogEntry:
    """Provenance record of one named, ingested trace.

    Attributes:
        name: the catalog name (how suites and the CLI refer to it).
        digest: content digest of the trace (the store address).
        length: dynamic instruction count.
        format: source trace format (``"k6"`` or ``"memtrace"``).
        source_digest: SHA-256 of the raw source file's bytes.
        source_name: base name of the source file (for humans).
        parser_version: :data:`repro.workloads.ingest.PARSER_VERSION`
            at ingest time — bumping the parser makes stale entries
            auditable.
    """

    name: str
    digest: str
    length: int
    format: str
    source_digest: str
    source_name: str
    parser_version: int

    def ref(self) -> "StoredTraceRef":
        """The store reference this entry resolves to."""
        return StoredTraceRef(
            name=self.name, digest=self.digest, length=self.length
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "CatalogEntry":
        """Rebuild an entry from its ``catalog.json`` dict form."""
        return cls(
            name=str(payload["name"]),
            digest=str(payload["digest"]),
            length=int(payload["length"]),
            format=str(payload["format"]),
            source_digest=str(payload["source_digest"]),
            source_name=str(payload["source_name"]),
            parser_version=int(payload["parser_version"]),
        )


@dataclass(frozen=True)
class StoredTraceRef:
    """A by-digest pointer to a trace persisted in a :class:`TraceStore`.

    ``name`` rides along with the digest so :class:`Trace`
    reconstruction needs no catalog lookup.

    Attributes:
        name: the trace's name.
        digest: the trace's content digest (store address).
        length: dynamic instruction count of the trace.
    """

    name: str
    digest: str
    length: int


class TraceStore:
    """Content-addressed columnar store of immutable traces.

    Parameters
    ----------
    root : path-like, optional
        Store root directory (created on first write).  Defaults to
        :func:`default_store_root`.
    """

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root) if root is not None else default_store_root()

    def _entry_dir(self, digest: str) -> Path:
        return self.root / digest[:2] / digest

    def contains(self, digest: str) -> bool:
        """Whether an entry for ``digest`` is fully published."""
        return (self._entry_dir(digest) / COMPRESSED_FILE).exists()

    def put(self, trace: Trace) -> StoredTraceRef:
        """Persist a trace (idempotent) and return its reference.

        The entry is staged in a scratch directory and published with a
        single :func:`os.rename`; when two writers race, the loser
        observes the winner's entry and discards its own staging — the
        digest guarantees the bytes are identical either way.
        """
        digest = trace.content_digest()
        ref = StoredTraceRef(
            name=trace.name, digest=digest, length=len(trace)
        )
        if self.contains(digest):
            return ref
        entry = self._entry_dir(digest)
        entry.parent.mkdir(parents=True, exist_ok=True)
        scratch = Path(
            tempfile.mkdtemp(prefix=f".{digest[:12]}-", dir=entry.parent)
        )
        try:
            np.savez_compressed(
                scratch / COMPRESSED_FILE,
                **{
                    column: np.ascontiguousarray(getattr(trace, column))
                    for column in COLUMNS
                },
            )
            try:
                os.rename(scratch, entry)
            except OSError:
                # Lost the publish race: the winner's entry is
                # byte-identical by content addressing.
                if not self.contains(digest):
                    raise
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return ref

    def get(self, ref: StoredTraceRef) -> Trace:
        """Open a stored trace, decompressed into memory.

        The digest cache is seeded from the reference so nothing
        re-hashes megabytes on access.
        """
        arrays = self._load_columns(ref.digest)
        trace = Trace(name=ref.name, **arrays)
        # Seed the digest cache: the store address *is* the digest.
        trace.__dict__["_content_digest"] = ref.digest
        return trace

    def _load_columns(self, digest: str) -> dict[str, np.ndarray]:
        """The five column arrays of one entry."""
        with np.load(self._entry_dir(digest) / COMPRESSED_FILE) as archive:
            return {column: archive[column] for column in COLUMNS}

    def __contains__(self, item: StoredTraceRef | str) -> bool:
        digest = item.digest if isinstance(item, StoredTraceRef) else item
        return self.contains(digest)

    # ------------------------------------------------------------ catalog
    @property
    def catalog_path(self) -> Path:
        """Where this store keeps its named-trace catalog."""
        return self.root / CATALOG_FILE

    def catalog(self) -> dict[str, CatalogEntry]:
        """The named ingested traces, sorted by name.

        An absent or unreadable catalog is an empty one — the store
        itself (content-addressed entries) is the source of truth;
        the catalog is a recoverable index over it.
        """
        try:
            payload = json.loads(
                self.catalog_path.read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError):
            return {}
        entries = {}
        for name in sorted(payload.get("traces", {})):
            try:
                entries[name] = CatalogEntry.from_dict(
                    payload["traces"][name]
                )
            except (KeyError, TypeError, ValueError):
                continue  # skip malformed rows, keep the rest usable
        return entries

    def lookup(self, name: str) -> CatalogEntry | None:
        """The catalog entry of ``name``, or None."""
        return self.catalog().get(name)

    def register(
        self, entry: CatalogEntry, force: bool = False
    ) -> CatalogEntry:
        """Publish a catalog entry (idempotent by name + digest).

        Re-registering an identical entry is a no-op; pointing an
        existing name at a *different* digest is an error unless
        ``force`` — names are how suites and saved campaigns refer to
        traces, so silent re-pointing would corrupt provenance.

        The catalog is rewritten through a scratch file and one
        :func:`os.replace`, so readers never observe a torn file.
        """
        existing = self.lookup(entry.name)
        if existing is not None and not force:
            if existing.digest == entry.digest:
                return existing
            raise ValueError(
                f"catalog name {entry.name!r} already maps to digest "
                f"{existing.digest[:12]}... (use force to re-point)"
            )
        entries = self.catalog()
        entries[entry.name] = entry
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": 1,
            "traces": {
                name: asdict(entries[name]) for name in sorted(entries)
            },
        }
        fd, scratch = tempfile.mkstemp(
            prefix=".catalog-", suffix=".json", dir=self.root
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(scratch, self.catalog_path)
        except BaseException:
            Path(scratch).unlink(missing_ok=True)
            raise
        return entry

    def verify(
        self, names: tuple[str, ...] | None = None
    ) -> list[tuple[str, str, str]]:
        """Audit catalog entries against the stored bytes.

        Returns ``(name, status, detail)`` rows, where ``status`` is
        ``"ok"`` (recomputed digest matches the address), ``"missing"``
        (no published entry for the digest) or ``"corrupt"`` (columns
        load but re-hash to a different digest, or fail to load).
        """
        entries = self.catalog()
        chosen = names if names is not None else tuple(sorted(entries))
        report = []
        for name in chosen:
            entry = entries.get(name)
            if entry is None:
                report.append((name, "missing", "not in catalog"))
                continue
            if not self.contains(entry.digest):
                report.append(
                    (name, "missing", f"no entry {entry.digest[:12]}...")
                )
                continue
            try:
                arrays = self._load_columns(entry.digest)
                recomputed = Trace(
                    name=entry.name, **arrays
                ).content_digest()
            except Exception as error:  # corrupt bytes: report, move on
                report.append((name, "corrupt", str(error)))
                continue
            if recomputed != entry.digest:
                report.append(
                    (name, "corrupt",
                     f"content re-hashes to {recomputed[:12]}...")
                )
            else:
                report.append((name, "ok", f"{entry.length} instrs"))
        return report
