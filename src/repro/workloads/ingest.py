"""Real-workload trace ingestion: text formats → :class:`Trace`.

Two streaming parsers turn the common text trace formats into the
repo's struct-of-arrays :class:`~repro.cpu.trace.Trace`:

* **k6** (DRAMSim2 memory-system traces): ``<address> <command>
  <cycle>`` per line, commands ``P_MEM_RD`` / ``P_MEM_WR``.  The format
  records the memory stream only — no program counters, no pipeline
  information — so fetch addresses are synthesized as a sequential
  loop over a fixed code footprint and the ``dep_next`` / ``redirect``
  flags stay all-false (documented in DESIGN.md; the memory stream is
  the signal this format actually carries).

* **memtrace** (Pin / DynamoRIO ``pinatrace``-style): ``<pc>: <R|W>
  <addr> [size]`` per line.  These traces do carry fetch addresses, so
  the parser reconstructs a plausible instruction stream around the
  memory records: small forward PC gaps become ALU filler, backward or
  far jumps become a redirecting branch, and a load whose next record
  sits within eight bytes of it is flagged ``dep_next`` (the
  adjacent-consumer pattern).  The heuristics are deterministic —
  ingesting the same file twice yields byte-identical traces — and are
  documented in DESIGN.md.

Both parsers stream line-by-line, tolerate blank and ``#`` comment
lines and CRLF endings, and raise :class:`IngestError` carrying
``file:line`` on malformed input.  :func:`ingest_file` is the one-call
path: parse, publish compressed into the trace store, and register a
:class:`~repro.workloads.store.CatalogEntry` with full provenance.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..cpu.trace import InstrKind, Trace
from .store import CatalogEntry, TraceStore

#: Bump when parser output changes for the same input bytes; recorded
#: in every catalog entry so stale ingests are detectable.
PARSER_VERSION = 1

#: The text formats :func:`parse_trace_lines` understands.
FORMATS = ("k6", "memtrace")

# k6 carries no PCs: fetch addresses are synthesized as a sequential
# loop over this footprint (base and span mirror the synthetic
# generator's defaults so downstream IL1 behaviour stays plausible).
_K6_PC_BASE = 0x0040_0000
_K6_PC_WORDS = 2048

# memtrace reconstruction thresholds (see DESIGN.md).
_FILLER_MAX_GAP = 64  # forward pc gap (bytes) still treated as fallthrough
_DEP_NEXT_GAP = 8  # load→consumer pc distance for the dep_next flag


class IngestError(ValueError):
    """A trace file could not be parsed.

    The message always leads with ``<origin>:<line>:`` so the offending
    input line is one click away.
    """


def _numbered(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped payload) for parseable lines.

    Blank lines, ``#`` comments and the ``#eof`` trailer some Pin
    tools emit are skipped; CRLF endings are normalized by the strip.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse_address(token: str, origin: str, lineno: int) -> int:
    """One hex-or-decimal address token → int (diagnostics on failure)."""
    try:
        value = int(token, 16 if token.lower().startswith("0x") else 10)
    except ValueError:
        # Bare hex without the 0x prefix is common in k6 dumps.
        try:
            value = int(token, 16)
        except ValueError:
            raise IngestError(
                f"{origin}:{lineno}: bad address {token!r}"
            ) from None
    if value < 0:
        raise IngestError(f"{origin}:{lineno}: negative address {token!r}")
    return value


def parse_k6(
    lines: Iterable[str],
    origin: str = "<k6>",
    limit: int | None = None,
    skip: int = 0,
) -> dict[str, np.ndarray]:
    """Parse DRAMSim2 k6 text (``<address> <command> <cycle>``).

    Parameters
    ----------
    lines : iterable of str
        The input lines (an open file handle streams).
    origin : str
        Label used in error messages (``file:line``).
    limit, skip : int
        Window over the record stream: drop the first ``skip``
        records, then keep at most ``limit``.

    Returns
    -------
    dict
        The five trace column arrays.
    """
    pcs: list[int] = []
    kinds: list[int] = []
    addrs: list[int] = []
    seen = 0
    for lineno, line in _numbered(lines):
        parts = line.split()
        if len(parts) != 3:
            raise IngestError(
                f"{origin}:{lineno}: expected '<address> <command> "
                f"<cycle>', got {len(parts)} fields: {line!r}"
            )
        address = _parse_address(parts[0], origin, lineno)
        command = parts[1].upper()
        if command in ("P_MEM_RD", "READ", "RD"):
            kind = InstrKind.LOAD
        elif command in ("P_MEM_WR", "WRITE", "WR"):
            kind = InstrKind.STORE
        else:
            raise IngestError(
                f"{origin}:{lineno}: unknown command {parts[1]!r} "
                "(expected P_MEM_RD or P_MEM_WR)"
            )
        if not parts[2].isdigit():
            raise IngestError(
                f"{origin}:{lineno}: bad cycle count {parts[2]!r}"
            )
        seen += 1
        if seen <= skip:
            continue
        # No PCs in this format: loop a fixed synthetic footprint.
        index = len(addrs)
        pcs.append(_K6_PC_BASE + 4 * (index % _K6_PC_WORDS))
        kinds.append(int(kind))
        addrs.append(address)
        if limit is not None and len(addrs) >= limit:
            break
    if not addrs:
        raise IngestError(f"{origin}: no records (empty or fully skipped)")
    n = len(addrs)
    return {
        "pc": np.asarray(pcs, dtype=np.uint64),
        "kind": np.asarray(kinds, dtype=np.uint8),
        "addr": np.asarray(addrs, dtype=np.uint64),
        "dep_next": np.zeros(n, dtype=bool),
        "redirect": np.zeros(n, dtype=bool),
    }


def parse_memtrace(
    lines: Iterable[str],
    origin: str = "<memtrace>",
    limit: int | None = None,
    skip: int = 0,
) -> dict[str, np.ndarray]:
    """Parse Pin/DynamoRIO memtrace text (``<pc>: <R|W> <addr> [size]``).

    Reconstructs an instruction stream around the memory records using
    the deterministic heuristics documented in DESIGN.md: ALU filler
    for small forward PC gaps, a redirecting branch for backward/far
    jumps, and ``dep_next`` on loads with an adjacent consumer.
    ``limit``/``skip`` window the *record* stream (before filler
    synthesis), so a window's instruction count can exceed ``limit``.
    """
    records: list[tuple[int, int, int]] = []  # (pc, kind, addr)
    seen = 0
    for lineno, line in _numbered(lines):
        head, sep, tail = line.partition(":")
        if not sep:
            raise IngestError(
                f"{origin}:{lineno}: expected '<pc>: <R|W> <addr>', "
                f"got {line!r}"
            )
        pc = _parse_address(head.strip(), origin, lineno)
        parts = tail.split()
        if len(parts) not in (2, 3):
            raise IngestError(
                f"{origin}:{lineno}: expected '<R|W> <addr> [size]' "
                f"after the colon, got {tail.strip()!r}"
            )
        op = parts[0].upper()
        if op in ("R", "READ"):
            kind = InstrKind.LOAD
        elif op in ("W", "WRITE"):
            kind = InstrKind.STORE
        else:
            raise IngestError(
                f"{origin}:{lineno}: unknown operation {parts[0]!r} "
                "(expected R or W)"
            )
        addr = _parse_address(parts[1], origin, lineno)
        if len(parts) == 3 and not parts[2].isdigit():
            raise IngestError(
                f"{origin}:{lineno}: bad access size {parts[2]!r}"
            )
        seen += 1
        if seen <= skip:
            continue
        records.append((pc, int(kind), addr))
        if limit is not None and len(records) >= limit:
            break
    if not records:
        raise IngestError(f"{origin}: no records (empty or fully skipped)")

    pcs: list[int] = []
    kinds: list[int] = []
    addrs: list[int] = []
    dep_next: list[bool] = []
    redirect: list[bool] = []

    def emit(pc: int, kind: int, addr: int, dep: bool, redir: bool) -> None:
        pcs.append(pc)
        kinds.append(kind)
        addrs.append(addr)
        dep_next.append(dep)
        redirect.append(redir)

    for i, (pc, kind, addr) in enumerate(records):
        nxt = records[i + 1] if i + 1 < len(records) else None
        gap = (nxt[0] - pc) if nxt is not None else 0
        dep = (
            kind == InstrKind.LOAD
            and nxt is not None
            and 0 < gap <= _DEP_NEXT_GAP
        )
        emit(pc, kind, addr, dep, False)
        if nxt is None:
            continue
        if 0 < gap <= _FILLER_MAX_GAP:
            # Fallthrough: the skipped word slots were non-memory
            # instructions — synthesize them as ALU filler.
            for word_pc in range(pc + 4, nxt[0], 4):
                emit(word_pc, int(InstrKind.ALU), 0, False, False)
        elif gap <= 0 or gap > _FILLER_MAX_GAP:
            # Backward or far jump: fetch was redirected between the
            # two records — represent it as one taken branch.
            emit(pc + 4, int(InstrKind.BRANCH), 0, False, True)
    return {
        "pc": np.asarray(pcs, dtype=np.uint64),
        "kind": np.asarray(kinds, dtype=np.uint8),
        "addr": np.asarray(addrs, dtype=np.uint64),
        "dep_next": np.asarray(dep_next, dtype=bool),
        "redirect": np.asarray(redirect, dtype=bool),
    }


_PARSERS = {"k6": parse_k6, "memtrace": parse_memtrace}


def parse_trace_lines(
    fmt: str,
    lines: Iterable[str],
    origin: str = "<trace>",
    limit: int | None = None,
    skip: int = 0,
) -> dict[str, np.ndarray]:
    """Dispatch to the parser for ``fmt`` (one of :data:`FORMATS`)."""
    try:
        parser = _PARSERS[fmt]
    except KeyError:
        raise IngestError(
            f"unknown trace format {fmt!r} (expected one of "
            f"{', '.join(FORMATS)})"
        ) from None
    return parser(lines, origin=origin, limit=limit, skip=skip)


def sniff_format(path: Path | str) -> str:
    """Guess the format from the first parseable line of ``path``.

    A line with a ``<pc>:`` prefix is memtrace; a three-field line
    whose middle token is a k6 command is k6.  Ambiguous or empty
    files raise :class:`IngestError` — pass ``--format`` explicitly.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", errors="replace") as handle:
        for lineno, line in _numbered(handle):
            head, sep, _ = line.partition(":")
            if sep and " " not in head.strip():
                return "memtrace"
            parts = line.split()
            if len(parts) == 3 and parts[1].upper() in (
                "P_MEM_RD", "P_MEM_WR", "READ", "WRITE", "RD", "WR"
            ):
                return "k6"
            raise IngestError(
                f"{path}:{lineno}: cannot infer trace format from "
                f"{line!r} (pass the format explicitly)"
            )
    raise IngestError(f"{path}: empty file, cannot infer trace format")


def file_digest(path: Path | str) -> str:
    """SHA-256 hex digest of a file's raw bytes (provenance record)."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def trace_from_file(
    path: Path | str,
    fmt: str | None = None,
    name: str | None = None,
    limit: int | None = None,
    skip: int = 0,
) -> tuple[Trace, str]:
    """Parse a trace file into a :class:`Trace`.

    Returns ``(trace, fmt)`` where ``fmt`` is the (possibly sniffed)
    format actually used.  ``name`` defaults to the file stem.
    """
    path = Path(path)
    if fmt is None:
        fmt = sniff_format(path)
    with path.open("r", encoding="utf-8", errors="replace") as handle:
        arrays = parse_trace_lines(
            fmt, handle, origin=str(path), limit=limit, skip=skip
        )
    return Trace(name=name or path.stem, **arrays), fmt


def ingest_file(
    path: Path | str,
    store: TraceStore | None = None,
    fmt: str | None = None,
    name: str | None = None,
    limit: int | None = None,
    skip: int = 0,
    force: bool = False,
) -> CatalogEntry:
    """Parse, publish (compressed) and catalog one trace file.

    The returned :class:`~repro.workloads.store.CatalogEntry` records
    full provenance: the source file's own digest, the format, and
    :data:`PARSER_VERSION`.  Re-ingesting identical bytes is a no-op;
    re-pointing an existing name at different content requires
    ``force`` (see :meth:`TraceStore.register`).
    """
    path = Path(path)
    store = store if store is not None else TraceStore()
    trace, fmt = trace_from_file(
        path, fmt=fmt, name=name, limit=limit, skip=skip
    )
    ref = store.put(trace)
    entry = CatalogEntry(
        name=trace.name,
        digest=ref.digest,
        length=ref.length,
        format=fmt,
        source_digest=file_digest(path),
        source_name=path.name,
        parser_version=PARSER_VERSION,
    )
    return store.register(entry, force=force)
