"""Simulator selection for functional cache simulation.

Two bit-identical simulators produce :class:`CacheStats` for an access
stream on a fresh cache in a fixed mode, and :func:`simulate_cache`
picks one from the replacement policy alone:

* a policy named LRU (any case) runs the batched numpy engine
  (:mod:`repro.engine.vectorized`), bit-identical to the behavioural
  model for LRU runs and an order of magnitude faster;
* every other policy name, and every
  :class:`~repro.cache.replacement.ReplacementPolicy` instance, runs
  the behavioural per-access model
  (:func:`repro.cache.hybrid.simulate_reference`), valid for any
  replacement policy and the ground truth for equivalence testing.

The engine passes :func:`simulate_cache` as
:meth:`repro.cpu.chip.Chip.run`'s ``simulate=``.  Batched callers
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


def vectorizable(policy: str | ReplacementPolicy) -> bool:
    """Whether ``policy`` runs on the vectorized engine (LRU by name)."""
    return isinstance(policy, str) and policy.lower() == "lru"


def simulate_cache(
    config: CacheConfig,
    mode: Mode,
    addresses: np.ndarray,
    is_write: np.ndarray | None = None,
    policy: str | ReplacementPolicy = "lru",
    seed: int = 0,
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
        policy: replacement policy name or instance; see
            :func:`vectorizable` for which simulator runs it.
        seed: seed for the random policy (behavioural model).
        disabled_lines: hard-fault-map ``(set, way)`` pairs of this
            array in this mode (see :mod:`repro.faults.maps`); both
            simulators honour them bit-identically.
        transients: optional soft-error sampler
            (:class:`repro.transients.sampling.TransientSampler`) for
            this array in this mode; read hits are classified into the
            transient counters, bit-identically in both simulators.
        plan: optional precomputed
            :class:`~repro.engine.plan.StreamPlan` of this exact
            stream under this config's geometry (batched callers only;
            ignored by the behavioural model).
    """
    if vectorizable(policy):
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
