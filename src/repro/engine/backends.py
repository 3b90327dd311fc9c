"""Backend selection for functional cache simulation.

Three interchangeable backends produce :class:`CacheStats` for an access
stream on a fresh cache in a fixed mode:

* ``"reference"`` — the behavioural per-access model
  (:func:`repro.cache.hybrid.simulate_reference`), valid for any
  replacement policy and the ground truth for equivalence testing;
* ``"vectorized"`` — the batched numpy engine
  (:mod:`repro.engine.vectorized`), bit-identical for LRU runs with a
  static way mask and an order of magnitude faster;
* ``"auto"`` — resolves per request: the vectorized engine for LRU
  simulations (the fast path's contract), the reference model for any
  other replacement policy.

The engine binds a backend into :func:`simulate_cache` and passes it
as :meth:`repro.cpu.chip.Chip.run`'s ``simulate=``.  Batched callers
(:mod:`repro.engine.batch`) also pass a precomputed
:class:`repro.engine.plan.StreamPlan` via ``plan=`` so one trace's
decode/sort/run-collapse is shared across many simulations.
"""

from __future__ import annotations

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.hybrid import simulate_reference
from repro.cache.replacement import ReplacementPolicy
from repro.cache.stats import CacheStats
from repro.engine.plan import StreamPlan
from repro.engine.vectorized import simulate_trace_vectorized
from repro.tech.operating import Mode
from repro.util.profiling import phase

#: Recognized backend names (``auto`` resolves per call).
BACKENDS = ("auto", "vectorized", "reference")


def resolve_backend(backend: str, policy: str | ReplacementPolicy) -> str:
    """Pick the concrete backend for a simulation request."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; known: {list(BACKENDS)}"
        )
    if backend != "auto":
        return backend
    vectorizable = isinstance(policy, str) and policy.lower() == "lru"
    return "vectorized" if vectorizable else "reference"


def simulate_cache(
    config: CacheConfig,
    mode: Mode,
    addresses: np.ndarray,
    is_write: np.ndarray | None = None,
    policy: str | ReplacementPolicy = "lru",
    seed: int = 0,
    backend: str = "auto",
    disabled_lines: tuple[tuple[int, int], ...] = (),
    transients=None,
    plan: StreamPlan | None = None,
) -> CacheStats:
    """Stream ``addresses`` through a fresh cache and return its counters.

    Args:
        config: hybrid cache configuration.
        mode: operating mode (fixed for the whole stream).
        addresses: byte addresses in program order.
        is_write: per-access write flags (None = all reads, e.g. fetch).
        policy: replacement policy name or instance (instances force the
            reference backend — the fast path models LRU only).
        seed: seed for the random policy (reference backend).
        backend: "auto", "vectorized" or "reference".
        disabled_lines: hard-fault-map ``(set, way)`` pairs of this
            array in this mode (see :mod:`repro.faults.maps`); both
            backends honour them bit-identically.
        transients: optional soft-error sampler
            (:class:`repro.transients.sampling.TransientSampler`) for
            this array in this mode; read hits are classified into the
            transient counters, bit-identically across backends.
        plan: optional precomputed
            :class:`~repro.engine.plan.StreamPlan` of this exact
            stream under this config's geometry (batched callers only;
            ignored by the reference backend).
    """
    chosen = resolve_backend(backend, policy)
    if chosen == "vectorized":
        if not (isinstance(policy, str) and policy.lower() == "lru"):
            raise ValueError(
                "the vectorized backend models LRU replacement only; "
                "use backend='reference' for other policies"
            )
        with phase("simulate.vectorized"):
            return simulate_trace_vectorized(
                config, mode, addresses, is_write,
                disabled_lines=disabled_lines,
                transients=transients,
                plan=plan,
            )
    with phase("simulate.reference"):
        return simulate_reference(
            config, mode, addresses, is_write, policy=policy, seed=seed,
            disabled_lines=disabled_lines,
            transients=transients,
        )
