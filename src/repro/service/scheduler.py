"""Multi-tenant simulation scheduler: quotas, fairness, backpressure.

The :class:`ServiceScheduler` sits between the service front end and
the engine.  Clients submit batches of :class:`~repro.engine.jobs.
SimulationJob`\\ s attributed to a *tenant*; for every job the scheduler
decides, under one lock, exactly one of:

``done``
    The result is already known — in-memory memo or the shared
    :class:`~repro.engine.store.ShardedResultStore` — and is served
    immediately.  This path is checked **before** any capacity check,
    which is the graceful-degradation contract: a saturated service
    still answers everything it has already computed.
``attached``
    An identical job (same content-hash key) is already queued or
    running for some tenant; this tenant is attached to it and will
    receive the same result.  Cross-tenant dedup costs nothing and is
    never sheddable.
``queued``
    New work, admitted while fewer than ``queue_capacity`` jobs wait.
    The jobs one submit call queues enter the weighted-fair queue
    (:class:`~repro.service.queue.WeightedFairQueue`) as one item per
    trace, costed by their count.
``shed``
    New work, rejected with a *typed* backpressure ticket — reason
    ``"quota"`` (this tenant already owns its full share of
    outstanding work) or ``"saturated"`` (``queue_capacity`` jobs are
    already queued) — carrying a ``retry_after`` hint.  Shedding
    happens only on these two conditions, pinned by the property tests.

Execution runs on worker threads (``workers`` bounds in-flight
groups).  Each runs one same-trace item through
:func:`repro.engine.batch.execute_group`, so its jobs share one stream
plan and one functional simulation per Vdd sweep, exactly as in a
library session.  A failed group's jobs are retried one by one with
exponential backoff, so one job that always raises cannot fail its
siblings; a job that still fails on its own after ``max_retries``
retries is marked ``failed``.  Results are published to the shared
store *before* the jobs are marked done, so a crash between the two
never yields a torn entry — and a partial result is unrepresentable:
:meth:`ServiceScheduler.result` only returns fully published
:class:`~repro.cpu.chip.RunResult` objects.

For deterministic tests the scheduler also runs with ``workers=0``:
nothing executes in the background and :meth:`run_next` pumps one
queued item at a time under an injectable clock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.cpu.chip import RunResult
from repro.engine.batch import execute_group, group_by_trace
from repro.engine.jobs import SimulationJob, job_key
from repro.engine.store import ShardedResultStore
from repro.service.queue import WeightedFairQueue

#: Ticket / entry states surfaced to clients.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
SHED = "shed"
ATTACHED = "attached"

#: Typed shed reasons.
REASON_SATURATED = "saturated"
REASON_QUOTA = "quota"


class ResultNotReady(LookupError):
    """A result was requested for a job that is not ``done``.

    Carries the job's current state so callers (and the HTTP layer)
    can distinguish "still running" from "failed" — but never receive
    a partial :class:`~repro.cpu.chip.RunResult`.
    """

    def __init__(self, key: str, state: str):
        super().__init__(f"job {key[:12]}… is {state}, not done")
        self.key = key
        self.state = state


@dataclass(frozen=True)
class Ticket:
    """Per-job outcome of one submit call.

    Attributes:
        key: the job's content-hash key (:func:`repro.engine.jobs.job_key`).
        state: ``done`` | ``queued`` | ``attached`` | ``shed``.
        reason: for ``shed`` tickets, ``"quota"`` or ``"saturated"``.
        retry_after: for ``shed`` tickets, the suggested delay in
            seconds before resubmitting.
    """

    key: str
    state: str
    reason: str | None = None
    retry_after: float | None = None

    def to_dict(self) -> dict:
        """The JSON-able wire form of the ticket."""
        payload: dict = {"key": self.key, "state": self.state}
        if self.reason is not None:
            payload["reason"] = self.reason
        if self.retry_after is not None:
            payload["retry_after"] = self.retry_after
        return payload


@dataclass
class SchedulerStats:
    """Where every submitted job went, and what execution cost.

    ``dedup_fraction`` is the share of submissions that never reached
    the execution queue because the scheduler already knew the answer
    (memo / shared store) or the work was already in flight — the
    number the fleet-scale cross-client dedup acceptance test measures.
    """

    submitted: int = 0
    served_memo: int = 0
    served_store: int = 0
    attached: int = 0
    queued: int = 0
    executed: int = 0
    retried: int = 0
    failed: int = 0
    shed_saturated: int = 0
    shed_quota: int = 0

    @property
    def dedup_fraction(self) -> float:
        """Deduplicated submissions as a share of all submissions."""
        if not self.submitted:
            return 0.0
        saved = self.served_memo + self.served_store + self.attached
        return saved / self.submitted

    def to_dict(self) -> dict:
        """The JSON-able wire form of the counters."""
        return {
            "submitted": self.submitted,
            "served_memo": self.served_memo,
            "served_store": self.served_store,
            "attached": self.attached,
            "queued": self.queued,
            "executed": self.executed,
            "retried": self.retried,
            "failed": self.failed,
            "shed_saturated": self.shed_saturated,
            "shed_quota": self.shed_quota,
            "dedup_fraction": self.dedup_fraction,
        }


@dataclass
class _Entry:
    """Internal per-key execution record."""

    key: str
    job: SimulationJob
    owner: str
    state: str = QUEUED
    attempts: int = 0
    error: str | None = None
    result: RunResult | None = None
    tenants: set[str] = field(default_factory=set)
    done_event: threading.Event = field(default_factory=threading.Event)


class ServiceScheduler:
    """Fair, quota-bounded, failure-tolerant executor of engine jobs.

    Parameters
    ----------
    store : ShardedResultStore, optional
        Shared result store; results found here are served without
        executing, and every executed result is published to it before
        the job is marked done.  None keeps results in memory only.
    workers : int
        Background worker threads, each running one same-trace group
        at a time.  0 disables background execution — tests drive the
        queue deterministically with :meth:`run_next`.
    queue_capacity : int, optional
        Most jobs queued at once; new work beyond it sheds with reason
        ``"saturated"``.  None leaves the queue unbounded.
    tenant_quota : int, optional
        Maximum *outstanding* (queued or running) jobs a single tenant
        may own; submissions beyond it shed with reason ``"quota"``.
        Attached (deduplicated) jobs never count against a quota.
    weights : mapping, optional
        Per-tenant fair-share weights (default 1.0 each).
    max_retries : int
        Retries of a job that fails on its own before it is marked
        ``failed``.  A failed group always re-queues its jobs singly.
    backoff_base : float
        First retry delay in seconds; doubles per attempt.
    retry_after : float
        The hint carried by shed tickets.
    execute : callable, optional
        Replacement for :func:`repro.engine.batch.execute_group`: takes
        one same-trace job list, returns their results in order — the
        fault-injection seam the failure tests use.
    clock : callable
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(
        self,
        store: ShardedResultStore | None = None,
        *,
        workers: int = 2,
        queue_capacity: int | None = 256,
        tenant_quota: int | None = None,
        weights: Mapping[str, float] | None = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        retry_after: float = 0.25,
        execute: Callable[
            [list[SimulationJob]], Sequence[RunResult]
        ] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if tenant_quota is not None and tenant_quota < 1:
            raise ValueError("tenant_quota must be at least 1 (or None)")
        if queue_capacity is not None and queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1 (or None)")
        self.store = store
        self.workers = workers
        self.queue_capacity = queue_capacity
        self.tenant_quota = tenant_quota
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.retry_after = retry_after
        self.stats = SchedulerStats()
        self._execute = execute or execute_group
        self._clock = clock
        self._queue = WeightedFairQueue()
        for tenant, weight in (weights or {}).items():
            self._queue.set_weight(tenant, weight)
        self._queued_jobs = 0
        self._entries: dict[str, _Entry] = {}
        self._outstanding: dict[str, int] = {}
        self._delayed: list[tuple[float, int, str, tuple[str, ...]]] = []
        self._delayed_seq = 0
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._threads: list[threading.Thread] = []
        self._running = False

    # --------------------------------------------------------- lifecycle
    def start(self) -> "ServiceScheduler":
        """Start the background worker threads (no-op when 0)."""
        with self._cond:
            if self._running:
                return self
            self._running = True
            self._threads = [
                threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-service-worker-{index}",
                    daemon=True,
                )
                for index in range(self.workers)
            ]
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        """Stop the workers (idempotent; queued work stays queued)."""
        with self._cond:
            self._running = False
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []

    def __enter__(self) -> "ServiceScheduler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------ submit
    def submit(
        self, tenant: str, jobs: Sequence[SimulationJob]
    ) -> list[Ticket]:
        """Admit a batch for a tenant, one typed ticket per job.

        Known results (memo or shared store) are served as ``done``
        even when the queue is saturated; identical in-flight work is
        joined as ``attached``; only genuinely *new* work is subject to
        the tenant quota and the queue bound, shedding with a typed
        reason + retry-after when either is exhausted.  The jobs this
        call queues enter the fair queue as one item per trace.
        """
        tickets = []
        with self._cond:
            fresh: list[tuple[str, SimulationJob]] = []
            for job in jobs:
                ticket = self._admit(tenant, job)
                tickets.append(ticket)
                if ticket.state == QUEUED:
                    fresh.append((ticket.key, job))
            for group in group_by_trace([job for _key, job in fresh]):
                keys = tuple(fresh[index][0] for index in group)
                self._queue.push(tenant, keys, cost=len(keys))
            self._cond.notify_all()
        return tickets

    def _admit(self, tenant: str, job: SimulationJob) -> Ticket:
        """Decide one job's fate (caller holds the lock)."""
        key = job_key(job)
        self.stats.submitted += 1
        entry = self._entries.get(key)
        if entry is not None and entry.state == DONE:
            self.stats.served_memo += 1
            return Ticket(key=key, state=DONE)
        if entry is not None and entry.state in (QUEUED, RUNNING):
            entry.tenants.add(tenant)
            self.stats.attached += 1
            return Ticket(key=key, state=ATTACHED)
        if entry is None and self.store is not None:
            cached = self.store.get(key)
            if cached is not None:
                done = _Entry(
                    key=key, job=job, owner=tenant, state=DONE,
                    result=cached, tenants={tenant},
                )
                done.done_event.set()
                self._entries[key] = done
                self.stats.served_store += 1
                return Ticket(key=key, state=DONE)
        # New (or previously failed) work: quota, then capacity.
        if (
            self.tenant_quota is not None
            and self._outstanding.get(tenant, 0) >= self.tenant_quota
        ):
            self.stats.shed_quota += 1
            return Ticket(
                key=key, state=SHED, reason=REASON_QUOTA,
                retry_after=self.retry_after,
            )
        if (
            self.queue_capacity is not None
            and self._queued_jobs >= self.queue_capacity
        ):
            self.stats.shed_saturated += 1
            return Ticket(
                key=key, state=SHED, reason=REASON_SATURATED,
                retry_after=self.retry_after,
            )
        if entry is None:
            entry = _Entry(key=key, job=job, owner=tenant)
        else:  # failed before: a fresh submission retries from scratch
            entry.owner = tenant
            entry.attempts = 0
            entry.error = None
            entry.done_event = threading.Event()
        entry.state = QUEUED
        entry.tenants.add(tenant)
        self._entries[key] = entry
        self._outstanding[tenant] = self._outstanding.get(tenant, 0) + 1
        self._queued_jobs += 1
        self.stats.queued += 1
        return Ticket(key=key, state=QUEUED)

    # ----------------------------------------------------------- queries
    def state_of(self, key: str) -> dict:
        """One job's public state (raises KeyError for unknown keys)."""
        with self._lock:
            entry = self._entries[key]
            payload = {
                "key": key,
                "state": entry.state,
                "attempts": entry.attempts,
            }
            if entry.error is not None:
                payload["error"] = entry.error
            return payload

    def snapshot(self, keys: Iterable[str]) -> dict[str, dict]:
        """States of many keys at one instant (unknown keys skipped).

        The payloads are *order-independent* — each carries its key and
        state, nothing positional — so progress streams built on
        successive snapshots are deterministic to assert against
        however completion order scrambles.
        """
        with self._lock:
            return {
                key: self.state_of(key)
                for key in keys
                if key in self._entries
            }

    def result(self, key: str) -> RunResult:
        """The completed result of a job — and only then.

        Raises KeyError for unknown keys and :class:`ResultNotReady`
        for queued / running / failed ones: a caller can never observe
        a partially computed :class:`~repro.cpu.chip.RunResult`.
        """
        with self._lock:
            entry = self._entries[key]
            if entry.state != DONE:
                raise ResultNotReady(key, entry.state)
            assert entry.result is not None
            return entry.result

    def result_bytes(self, key: str) -> bytes:
        """The stored pickle payload of a completed result.

        Served from the shared store when one is attached (the exact
        published bytes — the byte-identity contract), falling back to
        pickling the in-memory result.
        """
        import pickle

        result = self.result(key)
        if self.store is not None:
            payload = self.store.get_bytes(key)
            if payload is not None:
                return payload
        return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)

    def wait(self, keys: Iterable[str], timeout: float = 60.0) -> bool:
        """Block until every key is terminal (done/failed) or timeout."""
        deadline = self._clock() + timeout
        for key in keys:
            with self._lock:
                entry = self._entries.get(key)
            if entry is None:
                continue
            remaining = deadline - self._clock()
            if remaining <= 0 or not entry.done_event.wait(remaining):
                return False
        return True

    def queue_depth(self) -> int:
        """Jobs currently admitted but not yet executing."""
        with self._lock:
            return self._queued_jobs + sum(
                len(keys) for *_, keys in self._delayed
            )

    # --------------------------------------------------------- execution
    def run_next(self, now: float | None = None) -> list[str]:
        """Execute one queued item synchronously (``workers=0`` mode).

        Promotes any due retries first, then runs the fair queue's next
        item — one same-trace group — to completion.  Returns the
        executed jobs' keys, empty when nothing was runnable at ``now``.
        """
        with self._cond:
            self._promote_due(now if now is not None else self._clock())
            entries = self._take()
        if entries:
            self._finish(entries, now=now)
        return [entry.key for entry in entries]

    def _take(self) -> list[_Entry]:
        """Pop the next item and mark its jobs running (lock held)."""
        item = self._queue.pop()
        if item is None:
            return []
        entries = [self._entries[key] for key in item[1]]
        self._queued_jobs -= len(entries)
        for entry in entries:
            entry.state = RUNNING
        return entries

    def _finish(
        self, entries: list[_Entry], now: float | None = None
    ) -> None:
        """Execute one group; publish its results or schedule a retry."""
        try:
            results = self._execute([entry.job for entry in entries])
            finished = list(zip(entries, results, strict=True))
        except Exception as error:
            self._on_failure(entries, error, now=now)
            return
        # Publish to the shared store *before* flipping the states:
        # a reader that sees ``done`` can always read the entry.
        if self.store is not None:
            for entry, result in finished:
                self.store.put(entry.key, result)
        with self._cond:
            for entry, result in finished:
                entry.result = result
                entry.state = DONE
                entry.attempts += 1
                self._settle(entry)
            self.stats.executed += len(finished)

    def _on_failure(
        self, entries: list[_Entry], error: Exception, now: float | None
    ) -> None:
        """Retry with exponential backoff, or mark the job failed.

        The exception of a group run names no job, so a failed group's
        jobs are re-queued one by one: a job that always raises then
        fails alone instead of taking its siblings with it.  Only a job
        that failed on its own is marked ``failed``.
        """
        with self._cond:
            for entry in entries:
                entry.attempts += 1
            attempts = entries[0].attempts
            if len(entries) == 1 and attempts > self.max_retries:
                (entry,) = entries
                entry.state = FAILED
                entry.error = f"{type(error).__name__}: {error}"
                self._settle(entry)
                self.stats.failed += 1
                return
            self.stats.retried += len(entries)
            delay = self.backoff_base * 2 ** (attempts - 1)
            due = (now if now is not None else self._clock()) + delay
            for entry in entries:
                entry.state = QUEUED
                self._delayed_seq += 1
                self._delayed.append(
                    (due, self._delayed_seq, entry.owner, (entry.key,))
                )
            self._delayed.sort()
            self._cond.notify_all()

    def _settle(self, entry: _Entry) -> None:
        """Terminal bookkeeping (caller holds the lock)."""
        count = self._outstanding.get(entry.owner, 0) - 1
        if count > 0:
            self._outstanding[entry.owner] = count
        else:
            self._outstanding.pop(entry.owner, None)
        entry.done_event.set()
        self._cond.notify_all()

    def _promote_due(self, now: float) -> None:
        """Move due retries back into the fair queue (lock held).

        Retries bypass the admission bound: the work was already
        admitted once, and bouncing it off a momentarily full queue
        would turn a transient fault into a deadlock.
        """
        while self._delayed and self._delayed[0][0] <= now:
            _due, _seq, owner, keys = self._delayed.pop(0)
            self._queue.push(owner, keys, cost=len(keys))
            self._queued_jobs += len(keys)

    def _worker_loop(self) -> None:
        """Background worker: serve the fair queue until stopped."""
        while True:
            with self._cond:
                entries: list[_Entry] = []
                while self._running:
                    self._promote_due(self._clock())
                    entries = self._take()
                    if entries:
                        break
                    timeout = None
                    if self._delayed:
                        timeout = max(
                            self._delayed[0][0] - self._clock(), 0.0
                        )
                    self._cond.wait(timeout=timeout)
                if not entries:
                    return
            self._finish(entries)
