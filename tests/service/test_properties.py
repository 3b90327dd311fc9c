"""Hypothesis: scheduler/queue invariants under random submission mixes.

Three contracts pinned property-style, per the service design:

* **Quota enforcement** — whatever the interleaving of submissions and
  executions, a tenant never owns more outstanding work than its
  quota, and every quota shed happens exactly at the bound.
* **Submission-order invariance** — equal-weight tenants pushing the
  same per-tenant sequences drain in one global order, however their
  submissions interleave.
* **Backpressure monotonicity** — new work is shed *iff* the queue
  holds ``queue_capacity`` jobs (no quota configured): the service
  never rejects while it has room and never admits past the bound.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.engine.jobs import job_key
from repro.service.queue import WeightedFairQueue
from repro.service.scheduler import (
    ATTACHED,
    QUEUED,
    REASON_QUOTA,
    REASON_SATURATED,
    SHED,
    ServiceScheduler,
)

TENANTS = ("alice", "bob", "carol")


def _stub_scheduler(**kwargs) -> ServiceScheduler:
    return ServiceScheduler(
        workers=0,
        execute=lambda jobs: [("result-for", job_key(job)) for job in jobs],
        clock=lambda: 0.0,
        **kwargs,
    )


#: One run script: each step either submits (tenant, job index) or pumps
#: the queue ("run" executes one queued item).
steps = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(TENANTS), st.integers(min_value=0, max_value=11)
        ),
        st.just("run"),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=25, deadline=None)
@given(script=steps, quota=st.integers(min_value=1, max_value=3))
def test_quota_never_exceeded(script, quota, distinct_jobs):
    """A tenant's owned outstanding work is capped at the quota."""
    jobs = distinct_jobs(12)
    scheduler = _stub_scheduler(tenant_quota=quota, queue_capacity=None)
    owned = dict.fromkeys(TENANTS, 0)
    owner_of = {}
    for step in script:
        if step == "run":
            for key in scheduler.run_next(now=0.0):
                owned[owner_of[key]] -= 1
            continue
        tenant, index = step
        job = jobs[index]
        (ticket,) = scheduler.submit(tenant, [job])
        if ticket.state == QUEUED:
            owned[tenant] += 1
            owner_of[ticket.key] = tenant
        elif ticket.state == SHED:
            # Sheds carry the typed reason and fire only at the bound.
            assert ticket.reason == REASON_QUOTA
            assert ticket.retry_after > 0
            assert owned[tenant] == quota
        assert all(0 <= count <= quota for count in owned.values())


@settings(max_examples=25, deadline=None)
@given(
    lengths=st.tuples(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
    ),
    data=st.data(),
)
def test_drain_order_invariant_to_interleaving(lengths, data):
    """Equal-weight tenants drain identically for any interleaving."""

    def fill(queue: WeightedFairQueue, order) -> list:
        cursor = dict.fromkeys(TENANTS, 0)
        for tenant in order:
            queue.push(tenant, (tenant, cursor[tenant]))
            cursor[tenant] += 1
        drained = []
        while (item := queue.pop()) is not None:
            drained.append(item[1])
        return drained

    # The multiset of submissions: lengths[i] items from tenant i.
    multiset = [
        tenant
        for tenant, length in zip(TENANTS, lengths)
        for _ in range(length)
    ]
    shuffled = data.draw(st.permutations(multiset), label="interleaving")
    assert fill(WeightedFairQueue(), multiset) == fill(
        WeightedFairQueue(), shuffled
    )


@settings(max_examples=25, deadline=None)
@given(script=steps, capacity=st.integers(min_value=1, max_value=4))
def test_shed_iff_queue_full(script, capacity, distinct_jobs):
    """With no quota, shedding happens exactly at the job bound."""
    jobs = distinct_jobs(12)
    scheduler = _stub_scheduler(queue_capacity=capacity)
    for step in script:
        if step == "run":
            scheduler.run_next(now=0.0)
            continue
        tenant, index = step
        depth_before = scheduler.queue_depth()
        (ticket,) = scheduler.submit(tenant, [jobs[index]])
        if ticket.state == SHED:
            assert ticket.reason == REASON_SATURATED
            assert depth_before == capacity
        elif ticket.state == QUEUED:
            assert depth_before < capacity
        else:
            # done / attached never consume capacity — graceful
            # degradation holds even at the bound.
            assert ticket.state in (ATTACHED, "done")
            assert scheduler.queue_depth() == depth_before
        assert scheduler.queue_depth() <= capacity
