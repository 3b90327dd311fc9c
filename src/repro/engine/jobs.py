"""Simulation job descriptions, job keys and the per-job reference run.

A :class:`SimulationJob` is a fully self-contained, picklable description
of one (chip, trace, mode, operating point) run — the unit the
:class:`repro.engine.session.SimulationSession` deduplicates, dispatches
across processes and memoizes on disk.

Traces are usually referenced symbolically (:class:`TraceSpec`) so that
worker processes regenerate them locally instead of shipping megabytes of
arrays through pickling; an inline :class:`repro.cpu.trace.Trace` is also
accepted for ad-hoc, ingested and mixed streams.  Chips travel as
:class:`ChipConfig` (pure frozen dataclasses) and are rebuilt — and
memoized — per process.

``job_key`` derives a content hash over everything that determines the
result.  Which simulator runs a job is not part of it: the engine picks
one from the replacement policy, and both are bit-identical by contract
(enforced by ``tests/engine``).
"""

from __future__ import annotations

import hashlib
import pathlib
import weakref
from dataclasses import dataclass
from functools import lru_cache

from repro.cpu.chip import Chip, ChipConfig, RunResult
from repro.cpu.trace import Trace
from repro.engine import backends
from repro.faults.maps import DieFaultMap
from repro.tech.operating import Mode, OperatingPoint
from repro.transients.spec import TransientSpec
from repro.util.canonical import canonical_text
from repro.util.profiling import phase
from repro.workloads.mediabench import TraceSpec, generate_trace

#: Bump when the key schema itself changes.  v4: jobs carry an optional
#: soft-error injection spec (``SimulationJob.transients``), tokenized
#: by content with *null* specs (zero acceleration or zero upset rate)
#: collapsing onto the spec-less key — mirroring v3's fault-map rule,
#: where fault-free maps share keys with map-less jobs.
ENGINE_CACHE_VERSION = 4


@lru_cache(maxsize=1)
def _code_fingerprint() -> str:
    """Digest of the ``repro`` package sources.

    Simulation results depend on the model code, not just the job
    description — tuning a calibration constant must not be served a
    stale on-disk result.  Folding a source digest into every job key
    makes cache invalidation automatic on any package edit.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class SimulationJob:
    """One (chip, trace, mode, operating point) simulation request.

    Attributes:
        chip: the chip configuration to run.
        trace: a :class:`TraceSpec` (regenerated in the worker) or an
            inline :class:`Trace` (pickled with the job's dispatch
            chunk).  A workload
            :class:`~repro.workloads.source.TraceSource` supplies one
            of the two through its ``job_trace()``.
        mode: operating mode of the run.
        operating_point: optional override of the mode's paper default.
        fault_map: one die's disabled-line map
            (:class:`repro.faults.maps.DieFaultMap`); None simulates a
            fault-free die.  Keyed by *content*, so identical dies of a
            population deduplicate and a fault-free map shares its key
            with a map-less job.
        transients: soft-error injection spec
            (:class:`repro.transients.spec.TransientSpec`); None (or a
            *null* spec that can never strike) runs without injection.
            Keyed by content; null specs collapse onto the spec-less
            key, so disabled-injection jobs share cached results with
            plain runs.
    """

    chip: ChipConfig
    trace: TraceSpec | Trace
    mode: Mode
    operating_point: OperatingPoint | None = None
    fault_map: DieFaultMap | None = None
    transients: TransientSpec | None = None


def _trace_token(trace: TraceSpec | Trace) -> str:
    """Canonical text for the trace part of a job key.

    A :class:`TraceSpec` is keyed by its ``repr``.  Inline traces are
    keyed by name *and* content digest
    (:meth:`repro.cpu.trace.Trace.content_digest`), so content-named
    slices of a recurring phase — :meth:`Trace.slice`'s default — map
    to the same key and deduplicate in the session.
    """
    if isinstance(trace, TraceSpec):
        return repr(trace)
    return (
        f"Trace({trace.name!r}, n={len(trace)}, {trace.content_digest()})"
    )


def _canonical(value) -> str:
    """Deterministic content text for job-key hashing.

    ``repr`` alone is not stable across interpreter invocations: set
    iteration order follows randomized string hashing (PYTHONHASHSEED),
    so ``repr(frozenset({Mode.HP, Mode.ULE}))`` flips between runs and
    would silently defeat the cross-invocation disk cache.  The shared
    canonical walker (:mod:`repro.util.canonical` — the same machinery
    that keys sweep candidates via ``CacheConfig.canonical``) recurses
    through dataclasses and containers, sorting unordered ones.
    """
    return canonical_text(value)


#: Per-config-object hashing state, keyed by ``id(config)``: the
#: sha256 state after the job key's ``version␟fingerprint␟chip-text␟``
#: prefix, and the digest of the chip text alone (``chip_for``'s key).
#: The canonical walk over a full ChipConfig costs near a millisecond
#: and its text is ~9 KB, so each config object is walked once and its
#: text is not kept.  An entry dies with its config (a weak-reference
#: callback drops it), so a recycled id can never alias a dead
#: object's entry and the memo needs no size limit.
_CHIP_STATES: dict[int, tuple] = {}


def _chip_state(config: ChipConfig) -> tuple:
    """(job-key prefix state, chip-text digest) of a configuration.

    The canonical walk recursively includes every numeric parameter of
    the cache geometry, bitcells, protection schemes and timing model,
    so it is a faithful — and invocation-stable — content description.
    Memoized by object identity: equal-but-distinct configs re-walk
    (and produce the same state), repeated objects — the common case in
    batched sweeps — pay once.
    """
    key = id(config)
    entry = _CHIP_STATES.get(key)
    if entry is not None and entry[0]() is config:
        return entry[1], entry[2]
    text = _canonical(config).encode("utf-8")
    prefix = hashlib.sha256(
        f"engine-cache-v{ENGINE_CACHE_VERSION}\x1f"
        f"{_code_fingerprint()}\x1f".encode("utf-8")
    )
    prefix.update(text)
    prefix.update(b"\x1f")
    digest = hashlib.sha256(text).hexdigest()
    _CHIP_STATES[key] = (
        weakref.ref(config, lambda _ref: _CHIP_STATES.pop(key, None)),
        prefix,
        digest,
    )
    return prefix, digest


def _fault_map_token(fault_map: DieFaultMap | None) -> str:
    """Canonical text for the fault-map part of a job key.

    Normalized first, and collapsed to ``None`` when fault-free: the
    many clean dies of a population — and plain non-population jobs —
    all share one key, which is what makes N-die runs cheap.
    """
    if fault_map is None or fault_map.is_fault_free:
        return _canonical(None)
    return _canonical(fault_map.normalized())


def _transient_token(spec: TransientSpec | None) -> str:
    """Canonical text for the transient-spec part of a job key.

    A *null* spec (zero acceleration or zero nominal upset rate) can
    never inject anything, so it collapses to ``None``: disabled-
    injection jobs share keys — and cached results — with plain runs,
    the same contract fault-free fault maps follow.
    """
    return _canonical(TransientSpec.effective(spec))


def job_key(job: SimulationJob) -> str:
    """Content hash identifying a job's result.

    The sha256 of the ``\\x1f``-joined tokens: cache version, code
    fingerprint, chip, trace, mode, operating point, fault map and
    transient spec.  The hash continues from the chip's memoized prefix
    state, so a config shared by many jobs is walked once.
    """
    prefix, _digest = _chip_state(job.chip)
    rest = "\x1f".join(
        (
            _trace_token(job.trace),
            repr(job.mode),
            _canonical(job.operating_point),
            _fault_map_token(job.fault_map),
            _transient_token(job.transients),
        )
    )
    digest = prefix.copy()
    digest.update(rest.encode("utf-8"))
    return digest.hexdigest()


# --------------------------------------------------------------- workers
#: Per-process memos: identical jobs in one batch share chip construction
#: and trace generation, whichever process they land in.  Chips are
#: keyed by chip-text digest.  The trace memo is bounded (traces are
#: megabytes; sweeps over lengths/seeds must not pin every generated
#: trace for the process lifetime) with FIFO eviction — batches reuse
#: traces generated moments before.
_CHIP_MEMO: dict[str, Chip] = {}
_TRACE_MEMO: dict[TraceSpec, Trace] = {}
_TRACE_MEMO_LIMIT = 32


def chip_for(config: ChipConfig) -> Chip:
    """Build (and memoize per process) the chip of a configuration.

    Keyed by the digest of the chip's canonical text, so equal configs
    share one :class:`Chip` (and its energy price tables).
    """
    _prefix, key = _chip_state(config)
    chip = _CHIP_MEMO.get(key)
    if chip is None:
        chip = Chip(config)
        _CHIP_MEMO[key] = chip
    return chip


def trace_for(trace: TraceSpec | Trace) -> Trace:
    """Resolve a job's trace, regenerating specs at most once."""
    if isinstance(trace, Trace):
        return trace
    resolved = _TRACE_MEMO.get(trace)
    if resolved is None:
        resolved = generate_trace(
            trace.benchmark, length=trace.length, seed=trace.seed
        )
        while len(_TRACE_MEMO) >= _TRACE_MEMO_LIMIT:
            _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
        _TRACE_MEMO[trace] = resolved
    return resolved


def execute_job(job: SimulationJob) -> RunResult:
    """Run one job to completion, alone.

    The per-job reference: sessions and the service execute through
    :func:`repro.engine.batch.execute_group`, whose results the
    equivalence tests and benchmarks check against this function.
    """
    chip = chip_for(job.chip)
    trace = trace_for(job.trace)
    with phase("jobs.execute"):
        return chip.run(
            trace,
            job.mode,
            operating_point=job.operating_point,
            fault_map=job.fault_map,
            transients=job.transients,
            simulate=backends.simulate_cache,
        )
