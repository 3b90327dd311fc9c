"""repro.engine — batched simulation engine and experiment orchestration.

The engine layer sits between the behavioural cache model and the
evaluation pipeline (see DESIGN.md section 5):

* :mod:`repro.engine.backends` — one entry point,
  :func:`simulate_cache`, with interchangeable bit-identical backends:
  the behavioural reference model and the batched numpy engine.
* :mod:`repro.engine.vectorized` — the fast path: whole-trace decode,
  per-set stream extraction and run-collapsed LRU kernels.
* :mod:`repro.engine.plan` — :class:`StreamPlan`: the trace-dependent
  half of the fast path, hoisted so batches reuse it across jobs.
* :mod:`repro.engine.batch` — trace-grouped execution: shared plans,
  memoized functional simulations, store-backed worker dispatch.
* :mod:`repro.engine.jobs` — picklable job descriptions, their
  content-hash keys and the per-job reference run.
* :mod:`repro.engine.store` — :class:`ShardedResultStore`: the
  content-hash-keyed on-disk result store, lock-free across processes,
  shared by sessions and the simulation service.
* :mod:`repro.engine.session` — :class:`SimulationSession`: batch
  submission with deduplication, multi-process dispatch and
  on-disk memoization through the result store.

Exports are lazy (PEP 562) so that low layers — ``repro.cpu.chip``
imports :func:`simulate_cache` — can load without dragging in the
orchestration stack.
"""

from __future__ import annotations

__all__ = [
    "BACKENDS",
    "SimulationJob",
    "SimulationSession",
    "StoredTraceRef",
    "StreamPlan",
    "TraceSpec",
    "TraceStore",
    "build_stream_plan",
    "current_session",
    "execute_group",
    "job_key",
    "reset_default_session",
    "simulate_cache",
    "use_session",
]

_LAZY_EXPORTS = {
    "BACKENDS": ("repro.engine.backends", "BACKENDS"),
    "simulate_cache": ("repro.engine.backends", "simulate_cache"),
    "SimulationJob": ("repro.engine.jobs", "SimulationJob"),
    "TraceSpec": ("repro.engine.jobs", "TraceSpec"),
    "job_key": ("repro.engine.jobs", "job_key"),
    "StreamPlan": ("repro.engine.plan", "StreamPlan"),
    "build_stream_plan": ("repro.engine.plan", "build_stream_plan"),
    "execute_group": ("repro.engine.batch", "execute_group"),
    "StoredTraceRef": ("repro.workloads.store", "StoredTraceRef"),
    "TraceStore": ("repro.workloads.store", "TraceStore"),
    "SimulationSession": ("repro.engine.session", "SimulationSession"),
    "current_session": ("repro.engine.session", "current_session"),
    "reset_default_session": (
        "repro.engine.session", "reset_default_session"
    ),
    "use_session": ("repro.engine.session", "use_session"),
}


def __getattr__(name: str):
    """Lazy exports (PEP 562) to avoid import cycles with low layers."""
    if name in _LAZY_EXPORTS:
        import importlib

        module_name, attr = _LAZY_EXPORTS[name]
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module 'repro.engine' has no attribute {name!r}")
