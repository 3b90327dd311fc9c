"""Trace-driven soft-error injection and recovery timing.

The executable counterpart of :mod:`repro.reliability.soft_errors`:
where the analytic model integrates Poisson strike probabilities, this
package injects concrete upsets into the functional simulation and
charges their recovery costs, making scenario B's SECDED-vs-DECTED
soft-error argument measurable instead of asserted.  One layer, below
``cpu`` (which builds the samplers and prices recoveries) and above
``cache`` (which only calls the sampler it is handed); bottom-up:

* :mod:`repro.transients.spec` — :class:`TransientSpec`, the frozen,
  content-hashable injection description jobs carry;
* :mod:`repro.transients.sampling` — the counter-based upset sampler
  and read classification (clean / corrected / detected→refetch /
  DUE / silent, :class:`~repro.cache.stats.TransientOutcome`,
  re-exported here), shared bit-identically by both backends;
* :mod:`repro.transients.recovery` — refetch/correction stall and
  scrub/refetch energy accounting over the sampled counters, into any
  ledger with an ``add`` method;
* :mod:`repro.transients.metrics` — DUE/SDC FIT and refetch-rate
  reductions shared by the population and exploration layers.

See ``docs/transients.md`` for the walkthrough.
"""

from repro.transients.metrics import transient_run_metrics
from repro.transients.recovery import (
    account_transient_energy,
    recovery_cycles,
    scrub_pass_energy,
)
from repro.transients.sampling import (
    TransientOutcome,
    TransientSampler,
    WayTransientParams,
    analytic_cache_fit,
    counter_uniforms,
    make_sampler,
)
from repro.transients.spec import TransientSpec

__all__ = [
    "TransientOutcome",
    "TransientSampler",
    "TransientSpec",
    "WayTransientParams",
    "account_transient_energy",
    "analytic_cache_fit",
    "counter_uniforms",
    "make_sampler",
    "recovery_cycles",
    "scrub_pass_energy",
    "transient_run_metrics",
]
