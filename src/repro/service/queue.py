"""Weighted-fair multi-tenant work queue.

Start-time fair queuing (SFQ) over tenants: every pushed item receives
a *start tag* — the later of the queue's virtual time and the pushing
tenant's last finish tag — and a *finish tag* ``start + cost/weight``.
:meth:`WeightedFairQueue.pop` always serves the smallest finish tag, so
over any backlogged interval each tenant receives service proportional
to its weight, whatever the interleaving of submissions.

Determinism is a design requirement, not an accident: ties are broken
by ``(finish, tenant, per-tenant sequence)`` — never by arrival order
across tenants — so the pop order of a set of items is **invariant to
how tenant submissions interleave**.  The scheduler's property tests
(:mod:`tests.service.test_properties`) pin exactly that: equal-weight
tenants submitting the same per-tenant sequences in any interleaving
drain in the same global order.

The queue only orders work: admission bounds and backpressure belong
to the scheduler, which counts queued jobs itself.  It performs no
locking of its own — the scheduler serializes access under its
condition variable.
"""

from __future__ import annotations

import heapq
from typing import Any


class WeightedFairQueue:
    """Deterministic start-time fair queue over weighted tenants.

    Every tenant weighs 1.0 until :meth:`set_weight` says otherwise;
    higher weight = proportionally more service under backlog.
    """

    def __init__(self):
        self._weights: dict[str, float] = {}
        self._heap: list[tuple[float, str, int, float, Any]] = []
        self._tenant_finish: dict[str, float] = {}
        self._tenant_seq: dict[str, int] = {}
        self._virtual = 0.0

    # ------------------------------------------------------------ config
    def set_weight(self, tenant: str, weight: float) -> None:
        """Assign a tenant's fair-share weight (default 1.0)."""
        if not weight > 0:
            raise ValueError("weight must be positive")
        self._weights[tenant] = weight

    def weight_of(self, tenant: str) -> float:
        """The effective weight of a tenant."""
        return self._weights.get(tenant, 1.0)

    # --------------------------------------------------------- push / pop
    def push(self, tenant: str, payload: Any, cost: float = 1.0) -> None:
        """Queue one item for a tenant.

        ``cost`` is the item's service demand in arbitrary units; a
        tenant's finish tags advance by ``cost / weight`` per item, so
        heavier items consume proportionally more of its share.
        """
        if not cost > 0:
            raise ValueError("cost must be positive")
        weight = self.weight_of(tenant)
        start = max(self._virtual, self._tenant_finish.get(tenant, 0.0))
        finish = start + cost / weight
        self._tenant_finish[tenant] = finish
        seq = self._tenant_seq.get(tenant, 0)
        self._tenant_seq[tenant] = seq + 1
        heapq.heappush(self._heap, (finish, tenant, seq, start, payload))

    def pop(self) -> tuple[str, Any] | None:
        """Serve the next ``(tenant, payload)`` by fair order, or None.

        Advances the queue's virtual time to the served item's start
        tag; when the queue drains completely, all clocks reset so a
        tenant's past burst never taxes its next one.
        """
        if not self._heap:
            return None
        finish, tenant, _seq, start, payload = heapq.heappop(self._heap)
        self._virtual = max(self._virtual, start)
        if not self._heap:
            # Idle reset: fairness state is only meaningful under
            # backlog, and bounded clocks keep tags numerically tame.
            self._virtual = 0.0
            self._tenant_finish.clear()
        return tenant, payload
