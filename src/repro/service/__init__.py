"""Fleet-scale simulation service: fair scheduler and HTTP API.

The service layer turns the single-process engine into a long-lived,
multi-client system.  It sits on top of the engine and shares its
result store (:mod:`repro.engine.store`, re-exported here), so library
sessions and service workers dedup against each other's completed
work.  Two tiers, each usable on its own:

* :mod:`repro.service.queue` / :mod:`repro.service.scheduler` — a
  weighted-fair multi-tenant queue with per-tenant quotas, bounded
  admission, typed backpressure and retry-with-backoff execution of
  same-trace groups through :func:`repro.engine.batch.execute_group`.
* :mod:`repro.service.api` / :mod:`repro.service.client` — an asyncio
  HTTP front end (stdlib only) and its blocking client, speaking
  declarative :class:`~repro.service.requests.JobRequest` payloads
  that resolve onto the engine's content-hash job keys.

Attribute access is lazy (PEP 562) to keep ``import repro.service``
cheap, not to break an import cycle: importing the API, client and
scheduler eagerly adds 0.07–0.09 s on a 2-vCPU host, a quarter to a
third of the fleet benchmark's set-up time.
"""

from __future__ import annotations

#: Public names and the sub-modules that define them.
_EXPORTS = {
    "ShardedResultStore": "repro.engine.store",
    "StoreSummary": "repro.engine.store",
    "CompactionReport": "repro.engine.store",
    "JobRequest": "repro.service.requests",
    "RequestError": "repro.service.requests",
    "resolve": "repro.service.requests",
    "WeightedFairQueue": "repro.service.queue",
    "ServiceScheduler": "repro.service.scheduler",
    "SchedulerStats": "repro.service.scheduler",
    "Ticket": "repro.service.scheduler",
    "ResultNotReady": "repro.service.scheduler",
    "ServiceAPI": "repro.service.api",
    "ServiceHandle": "repro.service.api",
    "serve_in_thread": "repro.service.api",
    "ServiceClient": "repro.service.client",
    "ServiceError": "repro.service.client",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Resolve public names lazily from their defining sub-modules."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    """Advertise the lazy exports to ``dir()`` and tab completion."""
    return sorted(set(globals()) | set(__all__))
