"""repro.engine — batched simulation engine and experiment orchestration.

The engine layer sits between the behavioural cache model and the
evaluation pipeline (see DESIGN.md section 5):

* :mod:`repro.engine.backends` — one entry point,
  :func:`simulate_cache`, which picks one of two bit-identical
  simulators from the replacement policy: the batched numpy engine for
  LRU, the behavioural reference model for any other policy.  The
  engine passes it to :meth:`repro.cpu.chip.Chip.run` as ``simulate=``.
* :mod:`repro.engine.vectorized` — the fast path: whole-trace decode,
  per-set stream extraction and run-collapsed LRU kernels.
* :mod:`repro.engine.plan` — :class:`StreamPlan`: the trace-dependent
  half of the fast path, hoisted so batches reuse it across jobs.
* :mod:`repro.engine.batch` — trace-grouped execution: shared plans
  and memoized functional simulations, one group per worker call.
* :mod:`repro.engine.jobs` — picklable job descriptions, their
  content-hash keys and the per-job reference run.  A job's trace is a
  :class:`TraceSpec` or an inline :class:`~repro.cpu.trace.Trace`;
  both come from :mod:`repro.workloads`, which sits below the engine.
* :mod:`repro.engine.store` — :class:`ShardedResultStore`: the
  content-hash-keyed on-disk result store, lock-free across processes,
  shared by sessions and the simulation service.
* :mod:`repro.engine.session` — :class:`SimulationSession`: batch
  submission with deduplication, multi-process dispatch and
  on-disk memoization through the result store.

Exports are lazy (PEP 562) so that importing one submodule does not
load the others: ``import repro.engine.jobs`` (what the service and
the workers need) leaves the session and its process pool unloaded.
"""

from __future__ import annotations

__all__ = [
    "SimulationJob",
    "SimulationSession",
    "StreamPlan",
    "TraceSpec",
    "build_stream_plan",
    "current_session",
    "execute_group",
    "job_key",
    "reset_default_session",
    "simulate_cache",
    "use_session",
]

_LAZY_EXPORTS = {
    "simulate_cache": ("repro.engine.backends", "simulate_cache"),
    "SimulationJob": ("repro.engine.jobs", "SimulationJob"),
    "TraceSpec": ("repro.workloads.mediabench", "TraceSpec"),
    "job_key": ("repro.engine.jobs", "job_key"),
    "StreamPlan": ("repro.engine.plan", "StreamPlan"),
    "build_stream_plan": ("repro.engine.plan", "build_stream_plan"),
    "execute_group": ("repro.engine.batch", "execute_group"),
    "SimulationSession": ("repro.engine.session", "SimulationSession"),
    "current_session": ("repro.engine.session", "current_session"),
    "reset_default_session": (
        "repro.engine.session", "reset_default_session"
    ),
    "use_session": ("repro.engine.session", "use_session"),
}


def __getattr__(name: str):
    """Lazy exports (PEP 562): load only the submodule asked for."""
    if name in _LAZY_EXPORTS:
        import importlib

        module_name, attr = _LAZY_EXPORTS[name]
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module 'repro.engine' has no attribute {name!r}")
