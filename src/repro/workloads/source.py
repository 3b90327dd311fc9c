"""Pluggable trace sources: where a simulation's instructions come from.

Historically every trace in the repo was synthesized by
:mod:`repro.workloads.mediabench`; this module makes the origin a
*seam*.  A :class:`TraceSource` is anything that can name itself,
digest its content, and materialize a :class:`~repro.cpu.trace.Trace`:

* :class:`SyntheticSource` wraps the existing generator.  Its
  :meth:`~SyntheticSource.job_trace` hands the engine the exact
  :class:`~repro.workloads.mediabench.TraceSpec` it used before this
  layer existed, so synthetic job keys — and every cached result keyed
  by them — are byte-identical (ENGINE_CACHE_VERSION untouched).
* :class:`IngestedSource` reads a real-workload trace out of the
  content-addressed store (see :mod:`repro.workloads.ingest`).
* :class:`MixSource` interleaves component sources into one
  multi-programmed stream — SPEC-style rate mixes — with deterministic
  smooth weighted round-robin scheduling and per-component address
  space offsets, so components never alias in the cache model.

:func:`as_sources` converts the classic suite vocabulary
(:class:`~repro.workloads.mediabench.BenchmarkSpec` tuples, and the
``mix1..mix7`` :class:`~repro.workloads.suites.MixSpec` entries) into
sources, preferring an ingested trace of the same name when the store
catalog has one and falling back to a synthetic proxy otherwise.

Callers build simulation jobs from :meth:`TraceSource.job_trace`; this
package imports nothing from :mod:`repro.engine`.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from ..cpu.trace import Trace
from .mediabench import BenchmarkSpec, TraceSpec, generate_trace
from .store import StoredTraceRef, TraceStore
from .suites import MixSpec

#: Bits of address kept per mix component; the top byte becomes the
#: component's address-space id so streams never alias across programs.
_ADDRESS_BITS = 56
_ADDRESS_MASK = (1 << _ADDRESS_BITS) - 1


@runtime_checkable
class TraceSource(Protocol):
    """Structural protocol: anything that can produce a trace.

    Implementations are immutable and deterministic — the same source
    always materializes byte-identical arrays, so the jobs built from
    :meth:`job_trace` keep stable keys across rebuilds.
    """

    @property
    def name(self) -> str:
        """Human-readable workload name (suite listings, job labels)."""
        ...  # pragma: no cover - protocol signature

    def content_digest(self) -> str:
        """SHA-256 of the materialized trace's arrays."""
        ...  # pragma: no cover - protocol signature

    def materialize(self) -> Trace:
        """Produce the trace (cached per source instance)."""
        ...  # pragma: no cover - protocol signature

    def job_trace(self) -> TraceSpec | Trace:
        """What a :class:`~repro.engine.jobs.SimulationJob` should
        carry for this source — a ``TraceSpec`` when the trace is
        cheaply regenerable, else the materialized ``Trace``."""
        ...  # pragma: no cover - protocol signature


class SyntheticSource:
    """A benchmark generated by :func:`~repro.workloads.mediabench.generate_trace`.

    The pre-refactor pipeline in one object: digests and job payloads
    are byte-identical to building the ``TraceSpec`` by hand.
    """

    def __init__(self, spec: BenchmarkSpec, length: int, seed: int) -> None:
        self.spec = spec
        self.length = int(length)
        self.seed = int(seed)
        self._trace: Trace | None = None

    @property
    def name(self) -> str:
        """The benchmark name."""
        return self.spec.name

    def content_digest(self) -> str:
        """Digest of the generated arrays (generates on first call)."""
        return self.materialize().content_digest()

    def materialize(self) -> Trace:
        """Generate (once) and return the synthetic trace."""
        if self._trace is None:
            self._trace = generate_trace(
                self.spec, length=self.length, seed=self.seed
            )
        return self._trace

    def job_trace(self) -> TraceSpec:
        """The classic ``TraceSpec`` — workers regenerate locally, so
        nothing ships over the process pool and job keys are unchanged
        from the pre-source-layer engine."""
        return TraceSpec(
            benchmark=self.spec.name, length=self.length, seed=self.seed
        )

    def __repr__(self) -> str:
        return (
            f"SyntheticSource({self.spec.name!r}, length={self.length}, "
            f"seed={self.seed})"
        )


class IngestedSource:
    """A real-workload trace read from the content-addressed store."""

    def __init__(
        self,
        name: str,
        digest: str,
        length: int,
        store: TraceStore | None = None,
    ) -> None:
        self._name = name
        self.digest = digest
        self.length = int(length)
        self.store = store if store is not None else TraceStore()
        self._trace: Trace | None = None

    @classmethod
    def from_catalog(
        cls, name: str, store: TraceStore | None = None
    ) -> "IngestedSource":
        """Resolve a catalog name into a source (KeyError if absent)."""
        store = store if store is not None else TraceStore()
        entry = store.lookup(name)
        if entry is None:
            raise KeyError(
                f"trace {name!r} is not in the store catalog at "
                f"{store.root} (run 'repro ingest' first)"
            )
        return cls(
            name=entry.name,
            digest=entry.digest,
            length=entry.length,
            store=store,
        )

    @property
    def name(self) -> str:
        """The catalog name of the ingested trace."""
        return self._name

    def content_digest(self) -> str:
        """The store address — no re-hash needed."""
        return self.digest

    def materialize(self) -> Trace:
        """Load (once) from the store."""
        if self._trace is None:
            self._trace = self.store.get(
                StoredTraceRef(
                    name=self._name, digest=self.digest, length=self.length
                )
            )
        return self._trace

    def job_trace(self) -> Trace:
        """The inline trace (pool dispatch pickles it with its jobs)."""
        return self.materialize()

    def __repr__(self) -> str:
        return (
            f"IngestedSource({self._name!r}, n={self.length}, "
            f"{self.digest[:12]}...)"
        )


class MixSource:
    """A multi-programmed mix of component sources.

    Construction is canonicalized so the mix is a pure function of its
    components' *content*: components (and their ratios) are sorted by
    content digest before scheduling, which makes any permutation of
    the same ratio-normalized components produce a byte-identical
    trace.  Scheduling is smooth weighted round-robin — each slot the
    per-component credit grows by its ratio and the highest credit
    (ties to the lowest sorted index) emits its next instruction —
    which interleaves components proportionally at instruction
    granularity instead of in coarse chunks.

    Each sorted component ``i`` is relocated into its own address
    space: the top byte of both ``pc`` and ``addr`` becomes ``i + 1``,
    so the cache model never sees cross-program aliasing.  A component
    shorter than its share wraps around (rate-mode repetition).
    """

    def __init__(
        self,
        name: str,
        components: Sequence[TraceSource],
        length: int,
        ratios: Sequence[float] | None = None,
    ) -> None:
        if not components:
            raise ValueError(f"mix {name!r}: no components")
        if ratios is None:
            ratios = (1.0,) * len(components)
        if len(ratios) != len(components):
            raise ValueError(
                f"mix {name!r}: {len(components)} components but "
                f"{len(ratios)} ratios"
            )
        if any(r <= 0 for r in ratios):
            raise ValueError(f"mix {name!r}: ratios must be positive")
        if length < len(components):
            raise ValueError(
                f"mix {name!r}: length {length} below component count"
            )
        self._name = name
        self.length = int(length)
        total = float(sum(ratios))
        # Canonical order: sort (component, ratio) pairs by content
        # digest so permutations of the same mix are identical.
        paired = sorted(
            zip(components, (r / total for r in ratios)),
            key=lambda pair: pair[0].content_digest(),
        )
        self.components = tuple(pair[0] for pair in paired)
        self.ratios = tuple(pair[1] for pair in paired)
        self._trace: Trace | None = None

    @property
    def name(self) -> str:
        """The mix name (e.g. ``"mix3"``)."""
        return self._name

    def content_digest(self) -> str:
        """Digest of the interleaved arrays (materializes on first call)."""
        return self.materialize().content_digest()

    def _quotas(self) -> list[int]:
        """Largest-remainder split of ``length`` across components.

        Every component gets at least one instruction so a tiny mix
        still exercises all programs.
        """
        exact = [self.length * r for r in self.ratios]
        quotas = [max(1, int(e)) for e in exact]
        remainders = [e - int(e) for e in exact]
        # Hand out the remaining slots by descending remainder
        # (ties to the lowest index, for determinism).
        order = sorted(
            range(len(quotas)), key=lambda i: (-remainders[i], i)
        )
        index = 0
        while sum(quotas) < self.length:
            quotas[order[index % len(order)]] += 1
            index += 1
        while sum(quotas) > self.length:
            # Rounding plus the >=1 floor can overshoot; shave the
            # largest quotas first, never below one.
            victim = max(range(len(quotas)), key=lambda i: (quotas[i], -i))
            if quotas[victim] <= 1:
                raise ValueError(
                    f"mix {self._name!r}: length {self.length} cannot "
                    f"cover {len(quotas)} components"
                )
            quotas[victim] -= 1
        return quotas

    def _schedule(self, quotas: Sequence[int]) -> np.ndarray:
        """Smooth-WRR component index per output slot."""
        n = len(self.components)
        credits = np.zeros(n)
        remaining = np.asarray(quotas, dtype=np.int64).copy()
        ratios = np.asarray(self.ratios)
        order = np.empty(self.length, dtype=np.int64)
        for slot in range(self.length):
            credits += ratios
            masked = np.where(remaining > 0, credits, -np.inf)
            chosen = int(np.argmax(masked))
            order[slot] = chosen
            credits[chosen] -= 1.0
            remaining[chosen] -= 1
        return order

    def materialize(self) -> Trace:
        """Interleave the components (cached per instance)."""
        if self._trace is not None:
            return self._trace
        quotas = self._quotas()
        order = self._schedule(quotas)
        columns = {
            column: np.empty(
                self.length,
                dtype=np.uint64 if column in ("pc", "addr") else (
                    np.uint8 if column == "kind" else bool
                ),
            )
            for column in ("pc", "kind", "addr", "dep_next", "redirect")
        }
        for i, component in enumerate(self.components):
            slots = np.nonzero(order == i)[0]
            if not len(slots):
                continue
            trace = component.materialize()
            # Wrap a short component around (rate-mode repetition).
            picks = np.arange(len(slots), dtype=np.int64) % len(trace)
            space = np.uint64((i + 1) << _ADDRESS_BITS)
            mask = np.uint64(_ADDRESS_MASK)
            columns["pc"][slots] = (trace.pc[picks] & mask) | space
            columns["addr"][slots] = (trace.addr[picks] & mask) | space
            columns["kind"][slots] = trace.kind[picks]
            columns["dep_next"][slots] = trace.dep_next[picks]
            columns["redirect"][slots] = trace.redirect[picks]
        self._trace = Trace(name=self._name, **columns)
        return self._trace

    def job_trace(self) -> Trace:
        """The inline interleaved trace (pool dispatch pickles it with
        its jobs, like any inline trace)."""
        return self.materialize()

    def __repr__(self) -> str:
        names = ", ".join(c.name for c in self.components)
        return f"MixSource({self._name!r}, [{names}], n={self.length})"


def _mix_component_spec(
    name: str,
    load_frac: float,
    store_frac: float,
    branch_frac: float,
    code_bytes: int,
    stream_bytes: int,
    table_bytes: int,
    mix_stream: float,
    mix_table: float,
    dep_next_frac: float = 0.14,
    redirect_frac: float = 0.10,
) -> BenchmarkSpec:
    """A synthetic proxy spec for one SPEC/GAP mix component.

    These live in a private registry (:data:`MIX_COMPONENTS`), *not*
    in :data:`~repro.workloads.mediabench.BENCHMARKS` — the paper's
    ten-benchmark vocabulary (and every error listing derived from it)
    must stay byte-stable.
    """
    stack = max(1.0 - mix_stream - mix_table, 0.0)
    return BenchmarkSpec(
        name=name,
        category="mix",
        load_frac=load_frac,
        store_frac=store_frac,
        branch_frac=branch_frac,
        code_bytes=code_bytes,
        stream_bytes=stream_bytes,
        table_bytes=table_bytes,
        block_bytes=0,
        image_bytes=0,
        stack_bytes=256,
        mix_stream=mix_stream,
        mix_table=mix_table,
        mix_block=0.0,
        mix_stack=round(stack, 10),
        dep_next_frac=dep_next_frac,
        redirect_frac=redirect_frac,
    )


#: Synthetic proxies for the mix components of SNIPPETS.md's MPKI-ordered
#: mix table: SPEC CPU2017 / GAP / STREAM workloads, characterized from
#: their published profiles (compute-bound imagick at one end, streaming
#: lbm/STREAM kernels and pointer-chasing mcf at the other).  Used as
#: the fallback when no ingested trace of the same name is cataloged.
MIX_COMPONENTS: dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in (
        # Compute-bound: tiny memory footprint, loopy code.
        _mix_component_spec(
            "imagick", 0.18, 0.06, 0.10, 12288, 2048, 512, 0.55, 0.15,
            dep_next_frac=0.10, redirect_frac=0.06,
        ),
        _mix_component_spec(
            "leela", 0.22, 0.08, 0.14, 16384, 2048, 8192, 0.25, 0.50,
            dep_next_frac=0.16, redirect_frac=0.14,
        ),
        _mix_component_spec(
            "deepsjeng", 0.23, 0.09, 0.13, 16384, 2048, 12288, 0.20, 0.55,
            dep_next_frac=0.16, redirect_frac=0.14,
        ),
        _mix_component_spec(
            "omnetpp", 0.26, 0.11, 0.12, 20480, 4096, 24576, 0.15, 0.65,
            dep_next_frac=0.18, redirect_frac=0.12,
        ),
        # Graph analytics: irregular, large tables.
        _mix_component_spec(
            "sssp", 0.30, 0.08, 0.12, 8192, 8192, 32768, 0.20, 0.62,
            dep_next_frac=0.20, redirect_frac=0.12,
        ),
        _mix_component_spec(
            "bfs", 0.29, 0.07, 0.13, 6144, 8192, 32768, 0.22, 0.60,
            dep_next_frac=0.20, redirect_frac=0.13,
        ),
        # Memory-bound SPEC: pointer chasing / lattice streaming.
        _mix_component_spec(
            "mcf", 0.34, 0.10, 0.11, 10240, 8192, 49152, 0.10, 0.72,
            dep_next_frac=0.22, redirect_frac=0.11,
        ),
        _mix_component_spec(
            "lbm", 0.32, 0.16, 0.04, 4096, 65536, 1024, 0.85, 0.03,
            dep_next_frac=0.12, redirect_frac=0.04,
        ),
        # STREAM kernels: pure sequential sweeps.
        _mix_component_spec(
            "stream_copy", 0.30, 0.15, 0.03, 1024, 49152, 64, 0.92, 0.01,
            dep_next_frac=0.08, redirect_frac=0.03,
        ),
        _mix_component_spec(
            "stream_scale", 0.31, 0.15, 0.03, 1024, 49152, 64, 0.92, 0.01,
            dep_next_frac=0.10, redirect_frac=0.03,
        ),
        _mix_component_spec(
            "stream_add", 0.33, 0.16, 0.03, 1280, 65536, 64, 0.93, 0.01,
            dep_next_frac=0.10, redirect_frac=0.03,
        ),
        _mix_component_spec(
            "stream_triad", 0.33, 0.16, 0.03, 1280, 65536, 64, 0.93, 0.01,
            dep_next_frac=0.11, redirect_frac=0.03,
        ),
    )
}


def component_source(
    name: str,
    length: int,
    seed: int,
    store: TraceStore | None = None,
) -> TraceSource:
    """Resolve a mix component name: ingested if cataloged, else proxy.

    The *trace-donation path*: drop a real trace into the store under a
    component's name (``repro ingest --name mcf ...``) and every mix
    using that component silently upgrades from the synthetic proxy to
    the real stream — no suite or campaign changes needed.
    """
    if store is None:
        store = TraceStore()
    entry = store.lookup(name)
    if entry is not None:
        return IngestedSource(
            name=entry.name,
            digest=entry.digest,
            length=entry.length,
            store=store,
        )
    try:
        spec = MIX_COMPONENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown mix component {name!r}: not in the store catalog "
            f"and no synthetic proxy; known proxies: "
            f"{sorted(MIX_COMPONENTS)}"
        ) from None
    return SyntheticSource(spec, length=length, seed=seed)


def as_sources(
    suite: Iterable[BenchmarkSpec | MixSpec | TraceSource],
    length: int,
    seed: int,
    store: TraceStore | None = None,
) -> tuple[TraceSource, ...]:
    """Normalize a suite into trace sources.

    Classic :class:`BenchmarkSpec` entries become
    :class:`SyntheticSource` (byte-identical to the old pipeline);
    :class:`MixSpec` entries become :class:`MixSource` with
    ingested-or-synthetic components; anything already a source passes
    through.
    """
    sources: list[TraceSource] = []
    for item in suite:
        if isinstance(item, BenchmarkSpec):
            sources.append(SyntheticSource(item, length=length, seed=seed))
        elif isinstance(item, MixSpec):
            components = tuple(
                component_source(name, length=length, seed=seed, store=store)
                for name in item.components
            )
            sources.append(
                MixSource(
                    name=item.name,
                    components=components,
                    length=length,
                    ratios=item.ratios,
                )
            )
        elif isinstance(item, TraceSource):
            sources.append(item)
        else:
            raise TypeError(
                f"cannot build a trace source from {type(item).__name__}"
            )
    return tuple(sources)
