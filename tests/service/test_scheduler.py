"""Scheduler semantics under faults: retries, quotas, degradation.

These suites run the scheduler in ``workers=0`` mode with injected
executors and clocks, so every fault — a worker dying mid-group, a
truncated store entry, a saturated queue — is reproduced
deterministically rather than raced for.  Executors take one
same-trace job list and return its results in order, like
:func:`repro.engine.batch.execute_group`.
"""

from __future__ import annotations

import pickle
import sys
import threading
from collections import Counter

import pytest

from repro.engine.jobs import job_key
from repro.service.scheduler import (
    ATTACHED,
    DONE,
    FAILED,
    QUEUED,
    REASON_QUOTA,
    REASON_SATURATED,
    RUNNING,
    SHED,
    ResultNotReady,
    ServiceScheduler,
)
from repro.engine.store import ShardedResultStore


class FlakyExecutor:
    """Records each call's keys; fails each job's first ``failures`` runs."""

    def __init__(self, failures: int = 1):
        self.failures = failures
        self.calls: list[list[str]] = []
        self.runs: Counter[str] = Counter()

    def __call__(self, jobs):
        keys = [job_key(job) for job in jobs]
        self.calls.append(keys)
        self.runs.update(keys)
        if any(self.runs[key] <= self.failures for key in keys):
            raise RuntimeError(
                f"worker killed mid-group (attempt for {keys[0][:8]})"
            )
        return [("result-for", key) for key in keys]


class TestHappyPath:
    def test_submit_run_result(self, manual_scheduler, distinct_jobs):
        scheduler = manual_scheduler()
        (job,) = distinct_jobs(1)
        (ticket,) = scheduler.submit("alice", [job])
        assert ticket.state == QUEUED
        assert scheduler.run_next() == [ticket.key]
        assert scheduler.result(ticket.key) == ("result-for", ticket.key)
        assert scheduler.stats.executed == 1
        assert scheduler.run_next() == []

    def test_memo_and_attach_dedup(self, manual_scheduler, distinct_jobs):
        scheduler = manual_scheduler()
        (job,) = distinct_jobs(1)
        (first,) = scheduler.submit("alice", [job])
        (attached,) = scheduler.submit("bob", [job])
        assert attached.state == ATTACHED
        scheduler.run_next()
        (memo,) = scheduler.submit("carol", [job])
        assert memo.state == DONE
        assert scheduler.stats.executed == 1
        assert scheduler.stats.attached == 1
        assert scheduler.stats.served_memo == 1
        assert scheduler.stats.dedup_fraction == pytest.approx(2 / 3)
        # All three tenants read the identical object.
        assert scheduler.result(first.key) == ("result-for", first.key)

    def test_store_hit_served_without_executing(
        self, manual_scheduler, distinct_jobs, tmp_path
    ):
        store = ShardedResultStore(tmp_path)
        (job,) = distinct_jobs(1)
        key = job_key(job)
        store.put(key, ("precomputed", key))
        scheduler = manual_scheduler(store=store)
        (ticket,) = scheduler.submit("alice", [job])
        assert ticket.state == DONE
        assert scheduler.result(key) == ("precomputed", key)
        assert scheduler.stats.served_store == 1
        assert scheduler.stats.executed == 0

    def test_result_published_to_store_on_completion(
        self, manual_scheduler, distinct_jobs, tmp_path
    ):
        store = ShardedResultStore(tmp_path)
        scheduler = manual_scheduler(store=store)
        (job,) = distinct_jobs(1)
        (ticket,) = scheduler.submit("alice", [job])
        scheduler.run_next()
        assert store.get(ticket.key) == ("result-for", ticket.key)
        assert scheduler.result_bytes(ticket.key) == store.get_bytes(
            ticket.key
        )


class TestFaultInjection:
    def test_killed_worker_retries_with_backoff(
        self, manual_scheduler, distinct_jobs
    ):
        executor = FlakyExecutor(failures=1)
        scheduler = manual_scheduler(
            execute=executor, backoff_base=1.0, clock=lambda: 0.0
        )
        (job,) = distinct_jobs(1)
        (ticket,) = scheduler.submit("alice", [job])
        # First attempt dies; the job is re-queued, not failed.
        assert scheduler.run_next(now=0.0) == [ticket.key]
        assert scheduler.state_of(ticket.key)["state"] == QUEUED
        assert scheduler.stats.retried == 1
        # Before the backoff expires nothing is runnable...
        assert scheduler.run_next(now=0.5) == []
        # ...after it, the retry runs and succeeds.
        assert scheduler.run_next(now=1.0) == [ticket.key]
        assert scheduler.result(ticket.key) == ("result-for", ticket.key)
        assert scheduler.state_of(ticket.key)["attempts"] == 2

    def test_backoff_doubles_per_attempt(self, manual_scheduler, distinct_jobs):
        executor = FlakyExecutor(failures=2)
        scheduler = manual_scheduler(
            execute=executor,
            backoff_base=1.0,
            max_retries=3,
            clock=lambda: 0.0,
        )
        (job,) = distinct_jobs(1)
        (ticket,) = scheduler.submit("alice", [job])
        scheduler.run_next(now=0.0)  # attempt 1 fails -> due at 1.0
        assert scheduler.run_next(now=0.9) == []
        scheduler.run_next(now=1.0)  # attempt 2 fails -> due at 3.0
        assert scheduler.run_next(now=2.9) == []
        assert scheduler.run_next(now=3.0) == [ticket.key]
        assert scheduler.state_of(ticket.key)["state"] == DONE

    def test_exhausted_retries_mark_failed_never_partial(
        self, manual_scheduler, distinct_jobs
    ):
        scheduler = manual_scheduler(
            execute=FlakyExecutor(failures=99),
            max_retries=1,
            backoff_base=0.0,
            clock=lambda: 0.0,
        )
        (job,) = distinct_jobs(1)
        (ticket,) = scheduler.submit("alice", [job])
        scheduler.run_next(now=0.0)
        scheduler.run_next(now=0.0)
        state = scheduler.state_of(ticket.key)
        assert state["state"] == FAILED
        assert "RuntimeError" in state["error"]
        assert scheduler.stats.failed == 1
        # A failed job never yields a result object, partial or not.
        with pytest.raises(ResultNotReady) as excinfo:
            scheduler.result(ticket.key)
        assert excinfo.value.state == FAILED

    def test_resubmission_after_failure_retries_from_scratch(
        self, manual_scheduler, distinct_jobs
    ):
        executor = FlakyExecutor(failures=2)
        scheduler = manual_scheduler(
            execute=executor,
            max_retries=0,
            clock=lambda: 0.0,
        )
        (job,) = distinct_jobs(1)
        scheduler.submit("alice", [job])
        scheduler.run_next(now=0.0)  # fails -> FAILED (no retries)
        scheduler.submit("alice", [job])
        scheduler.run_next(now=0.0)  # fails again
        (ticket,) = scheduler.submit("bob", [job])
        assert ticket.state == QUEUED  # failed entries re-enter the queue
        scheduler.run_next(now=0.0)  # the job's third run succeeds
        assert scheduler.result(ticket.key) == ("result-for", ticket.key)

    def test_truncated_store_entry_is_miss_then_heals(
        self, manual_scheduler, distinct_jobs, tmp_path
    ):
        store = ShardedResultStore(tmp_path)
        (job,) = distinct_jobs(1)
        key = job_key(job)
        store.put(key, ("will-be-truncated", key))
        path = store.path_for(key)
        path.write_bytes(path.read_bytes()[:-4])
        scheduler = manual_scheduler(store=store)
        with pytest.warns(RuntimeWarning, match="treated as a miss"):
            (ticket,) = scheduler.submit("alice", [job])
        assert ticket.state == QUEUED  # corrupt entry did not serve
        scheduler.run_next()
        assert scheduler.result(key) == ("result-for", key)
        assert store.get(key) == ("result-for", key)  # healed on publish

    def test_retry_requeue_bypasses_full_queue(
        self, manual_scheduler, distinct_jobs
    ):
        """A transient fault must never deadlock against saturation."""
        executor = FlakyExecutor(failures=1)
        scheduler = manual_scheduler(
            execute=executor,
            queue_capacity=2,
            backoff_base=0.0,
            clock=lambda: 0.0,
        )
        jobs = distinct_jobs(3)
        tickets = scheduler.submit("alice", jobs[:2])
        assert [t.state for t in tickets] == [QUEUED, QUEUED]
        scheduler.run_next(now=0.0)  # first job fails -> due immediately
        # Fill the freed slot so the queue is at capacity again.
        (filler,) = scheduler.submit("alice", [jobs[2]])
        assert filler.state == QUEUED
        # The retry is promoted past the full queue and completes.
        ran = [key for _ in range(3) for key in scheduler.run_next(now=0.0)]
        assert tickets[0].key in ran
        assert scheduler.result(tickets[0].key) == (
            "result-for",
            tickets[0].key,
        )


class TestBackpressure:
    def test_saturated_queue_sheds_with_typed_reason(
        self, manual_scheduler, distinct_jobs
    ):
        scheduler = manual_scheduler(queue_capacity=2)
        jobs = distinct_jobs(3)
        tickets = scheduler.submit("alice", jobs)
        assert [t.state for t in tickets] == [QUEUED, QUEUED, SHED]
        assert tickets[2].reason == REASON_SATURATED
        assert tickets[2].retry_after > 0
        assert scheduler.stats.shed_saturated == 1

    def test_quota_sheds_per_tenant_only(self, manual_scheduler, distinct_jobs):
        scheduler = manual_scheduler(tenant_quota=1, queue_capacity=8)
        jobs = distinct_jobs(3)
        alice = scheduler.submit("alice", jobs[:2])
        assert [t.state for t in alice] == [QUEUED, SHED]
        assert alice[1].reason == REASON_QUOTA
        # Another tenant has its own quota.
        (bob,) = scheduler.submit("bob", [jobs[2]])
        assert bob.state == QUEUED
        # Attaching to in-flight work is never quota-shed.
        (attach,) = scheduler.submit("alice", [jobs[2]])
        assert attach.state == ATTACHED
        # Completing work frees the quota.
        scheduler.run_next()
        resubmit = scheduler.submit("alice", [jobs[1]])
        assert resubmit[0].state == QUEUED

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="queue_capacity"):
            ServiceScheduler(workers=0, queue_capacity=0)

    def test_capacity_counts_jobs_not_items(
        self, manual_scheduler, same_trace_jobs
    ):
        """Four same-trace jobs make one item, but the bound is 3 jobs."""
        executor = FlakyExecutor(failures=0)
        scheduler = manual_scheduler(execute=executor, queue_capacity=3)
        tickets = scheduler.submit("alice", same_trace_jobs(4))
        assert [t.state for t in tickets] == [QUEUED] * 3 + [SHED]
        assert tickets[3].reason == REASON_SATURATED
        assert scheduler.queue_depth() == 3
        assert scheduler.run_next() == [t.key for t in tickets[:3]]
        assert executor.calls == [[t.key for t in tickets[:3]]]

    def test_memoized_results_served_under_saturation(
        self, manual_scheduler, distinct_jobs, tmp_path
    ):
        """Graceful degradation: known answers beat every capacity check."""
        store = ShardedResultStore(tmp_path)
        scheduler = manual_scheduler(
            store=store, queue_capacity=1, tenant_quota=1
        )
        jobs = distinct_jobs(4)
        done_key = job_key(jobs[0])
        store.put(done_key, ("precomputed", done_key))
        # Saturate both the queue and alice's quota with jobs[1].
        scheduler.submit("alice", [jobs[1]])
        assert scheduler.submit("alice", [jobs[2]])[0].state == SHED
        assert scheduler.submit("bob", [jobs[3]])[0].state == SHED
        # The store-known job is still served, quota and queue be damned.
        (ticket,) = scheduler.submit("alice", [jobs[0]])
        assert ticket.state == DONE
        assert scheduler.result(done_key) == ("precomputed", done_key)


class TestNeverPartial:
    def test_running_job_has_no_result(self, manual_scheduler, distinct_jobs):
        observed = {}

        def probing_execute(jobs):
            (job,) = jobs
            key = job_key(job)
            observed["state"] = scheduler.state_of(key)["state"]
            with pytest.raises(ResultNotReady):
                scheduler.result(key)
            return [("result-for", key)]

        scheduler = manual_scheduler(execute=probing_execute)
        (job,) = distinct_jobs(1)
        scheduler.submit("alice", [job])
        scheduler.run_next()
        assert observed["state"] == RUNNING

    def test_result_bytes_roundtrip(self, manual_scheduler, distinct_jobs):
        scheduler = manual_scheduler()
        (job,) = distinct_jobs(1)
        (ticket,) = scheduler.submit("alice", [job])
        scheduler.run_next()
        payload = scheduler.result_bytes(ticket.key)
        assert pickle.loads(payload) == scheduler.result(ticket.key)


class TestGroupedExecution:
    def test_same_trace_submit_is_one_call_in_order(
        self, manual_scheduler, same_trace_jobs
    ):
        executor = FlakyExecutor(failures=0)
        scheduler = manual_scheduler(execute=executor)
        jobs = same_trace_jobs(5)
        tickets = scheduler.submit("alice", jobs)
        keys = [ticket.key for ticket in tickets]
        assert keys == [job_key(job) for job in jobs]
        assert scheduler.run_next() == keys
        assert scheduler.run_next() == []
        assert executor.calls == [keys]
        assert scheduler.stats.executed == 5
        assert all(
            scheduler.result(key) == ("result-for", key) for key in keys
        )

    def test_distinct_traces_are_separate_calls(
        self, manual_scheduler, distinct_jobs
    ):
        executor = FlakyExecutor(failures=0)
        scheduler = manual_scheduler(execute=executor)
        tickets = scheduler.submit("alice", distinct_jobs(3))
        for _ in range(3):
            assert len(scheduler.run_next()) == 1
        assert sorted(executor.calls) == sorted(
            [ticket.key] for ticket in tickets
        )

    def test_failing_group_retries_job_by_job(
        self, manual_scheduler, same_trace_jobs
    ):
        executor = FlakyExecutor(failures=1)
        scheduler = manual_scheduler(
            execute=executor, backoff_base=1.0, clock=lambda: 0.0
        )
        tickets = scheduler.submit("alice", same_trace_jobs(3))
        keys = [ticket.key for ticket in tickets]
        assert scheduler.run_next(now=0.0) == keys
        assert scheduler.stats.retried == 3
        assert scheduler.queue_depth() == 3
        assert {
            scheduler.state_of(key)["state"] for key in keys
        } == {QUEUED}
        assert scheduler.run_next(now=0.5) == []  # the group's backoff
        for key in keys:
            assert scheduler.run_next(now=1.0) == [key]
        assert executor.calls == [keys] + [[key] for key in keys]
        assert scheduler.stats.executed == 3
        assert all(scheduler.state_of(key)["attempts"] == 2 for key in keys)

    @pytest.mark.parametrize("max_retries", [0, 2])
    def test_always_failing_job_fails_alone(
        self, manual_scheduler, same_trace_jobs, max_retries
    ):
        """One Vdd point that always raises must not fail its sweep."""
        jobs = same_trace_jobs(3)
        bad = job_key(jobs[1])
        calls = []

        def execute(group):
            keys = [job_key(job) for job in group]
            calls.append(keys)
            if bad in keys:
                raise OverflowError("math range error")
            return [("result-for", key) for key in keys]

        scheduler = manual_scheduler(
            execute=execute,
            max_retries=max_retries,
            backoff_base=0.0,
            clock=lambda: 0.0,
        )
        keys = [ticket.key for ticket in scheduler.submit("alice", jobs)]
        (attached,) = scheduler.submit("bob", [jobs[2]])
        assert attached.state == ATTACHED
        for _ in range(10):
            if not scheduler.run_next(now=0.0):
                break
        states = {key: scheduler.state_of(key)["state"] for key in keys}
        assert states == {keys[0]: DONE, bad: FAILED, keys[2]: DONE}
        assert "OverflowError" in scheduler.state_of(bad)["error"]
        assert scheduler.result(keys[2]) == ("result-for", keys[2])
        assert scheduler.stats.failed == 1
        assert scheduler.stats.executed == 2
        # The group once, then each job alone; the failing one until
        # its retries run out.  Even without retries a failed group
        # re-runs its jobs singly, since its error names no job.
        solo_failures = max(max_retries, 1)
        assert calls == (
            [keys, [keys[0]], [bad], [keys[2]]]
            + [[bad]] * (solo_failures - 1)
        )


class TestBackgroundWorkers:
    def test_worker_threads_drain_queue(self, distinct_jobs):
        scheduler = ServiceScheduler(
            workers=2,
            execute=lambda jobs: [("result-for", job_key(j)) for j in jobs],
        )
        jobs = distinct_jobs(6)
        with scheduler:
            tickets = scheduler.submit("alice", jobs)
            keys = [ticket.key for ticket in tickets]
            assert scheduler.wait(keys, timeout=10.0)
        assert all(
            scheduler.result(key) == ("result-for", key) for key in keys
        )
        assert scheduler.stats.executed == 6

    def test_worker_retry_path(self, distinct_jobs):
        executor = FlakyExecutor(failures=1)
        scheduler = ServiceScheduler(
            workers=1,
            execute=executor,
            backoff_base=0.01,
            max_retries=2,
        )
        (job,) = distinct_jobs(1)
        with scheduler:
            (ticket,) = scheduler.submit("alice", [job])
            assert scheduler.wait([ticket.key], timeout=10.0)
        assert scheduler.result(ticket.key) == ("result-for", ticket.key)
        assert scheduler.stats.retried == 1

    def test_concurrent_submitters_execute_each_key_once(
        self, same_trace_jobs, distinct_jobs
    ):
        """Four tenants race overlapping batches into four workers."""
        executed: list[str] = []
        record = threading.Lock()

        def execute(jobs):
            keys = [job_key(job) for job in jobs]
            with record:
                executed.extend(keys)
            return [("result-for", key) for key in keys]

        jobs = same_trace_jobs(6) + distinct_jobs(6)
        keys = {job_key(job) for job in jobs}
        scheduler = ServiceScheduler(
            workers=4, execute=execute, queue_capacity=None
        )

        def tenant(name):
            for start in range(0, len(jobs), 3):
                scheduler.submit(name, jobs[start:start + 3])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with scheduler:
                threads = [
                    threading.Thread(target=tenant, args=(f"t{index}",))
                    for index in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10.0)
                assert not any(thread.is_alive() for thread in threads)
                assert scheduler.wait(keys, timeout=10.0)
        finally:
            sys.setswitchinterval(previous)
        assert sorted(executed) == sorted(keys)
        stats = scheduler.stats
        assert stats.executed == stats.queued == len(keys)
        assert stats.submitted == 4 * len(jobs) == (
            stats.served_memo + stats.attached + stats.queued
        )
        assert scheduler.queue_depth() == 0


class TestSharedResultPath:
    """Sessions and schedulers share one store through one cache."""

    def test_session_and_scheduler_serve_each_other(
        self, distinct_jobs, tmp_path
    ):
        from repro.engine.session import SimulationSession
        from repro.engine.store import generation_store

        first, second = distinct_jobs(2)
        scheduler = ServiceScheduler(generation_store(tmp_path), workers=0)
        scheduler.submit("alice", [first])
        scheduler.run_next()
        with SimulationSession(cache_dir=tmp_path) as session:
            from_store, executed = session.run_jobs([first, second])
        assert (session.stats.disk_hits, session.stats.executed) == (1, 1)
        assert from_store.epi == scheduler.result(job_key(first)).epi
        (ticket,) = scheduler.submit("bob", [second])
        assert ticket.state == DONE
        assert scheduler.stats.served_store == 1
        assert scheduler.result(ticket.key).epi == executed.epi
        assert scheduler.stats.executed == 1

    def test_failed_key_found_in_store_is_served_done(
        self, manual_scheduler, distinct_jobs, tmp_path
    ):
        store = ShardedResultStore(tmp_path)
        scheduler = manual_scheduler(
            store=store,
            execute=FlakyExecutor(failures=99),
            max_retries=0,
            clock=lambda: 0.0,
        )
        (job,) = distinct_jobs(1)
        (ticket,) = scheduler.submit("alice", [job])
        scheduler.run_next(now=0.0)
        assert scheduler.state_of(ticket.key)["state"] == FAILED
        # Another process publishes the result meanwhile.
        store.put(ticket.key, ("published-elsewhere", ticket.key))
        (again,) = scheduler.submit("bob", [job])
        assert again.state == DONE
        assert scheduler.state_of(ticket.key) == {
            "key": ticket.key, "state": DONE, "attempts": 0,
        }
        assert scheduler.result(ticket.key) == (
            "published-elsewhere", ticket.key,
        )
        assert scheduler.stats.served_store == 1
        assert scheduler.queue_depth() == 0

    def test_result_lost_from_store_fails_then_recomputes(
        self, manual_scheduler, distinct_jobs, tmp_path, monkeypatch
    ):
        from repro.engine import store as store_module

        monkeypatch.setattr(store_module, "MEMO_LIMIT", 1)
        store = ShardedResultStore(tmp_path)
        scheduler = manual_scheduler(store=store)
        lost, other = distinct_jobs(2)
        key = job_key(lost)
        scheduler.submit("alice", [lost, other])
        scheduler.run_next()
        scheduler.run_next()  # ``other`` pushes ``lost`` out of memory
        store.path_for(key).unlink()
        with pytest.raises(ResultNotReady) as excinfo:
            scheduler.result(key)
        assert excinfo.value.state == FAILED
        assert "lost" in scheduler.state_of(key)["error"]
        (ticket,) = scheduler.submit("alice", [lost])
        assert ticket.state == QUEUED
        scheduler.run_next()
        assert scheduler.result(key) == ("result-for", key)

    def test_publish_failure_is_retried(
        self, manual_scheduler, distinct_jobs, tmp_path
    ):
        class FlakyStore(ShardedResultStore):
            writes = 0

            def put(self, key, value):
                FlakyStore.writes += 1
                if FlakyStore.writes == 1:
                    raise OSError("No space left on device")
                return super().put(key, value)

        store = FlakyStore(tmp_path)
        scheduler = manual_scheduler(
            store=store, backoff_base=0.0, clock=lambda: 0.0
        )
        (job,) = distinct_jobs(1)
        (ticket,) = scheduler.submit("alice", [job])
        scheduler.run_next(now=0.0)
        assert scheduler.state_of(ticket.key)["state"] == QUEUED
        assert scheduler.stats.retried == 1
        scheduler.run_next(now=0.0)
        assert scheduler.result(ticket.key) == ("result-for", ticket.key)
        assert store.get(ticket.key) == ("result-for", ticket.key)

    def test_bounded_memo_under_concurrent_publish_and_lookup(
        self, distinct_jobs, tmp_path, monkeypatch
    ):
        """Four workers publish while four tenants look up, memo of 2."""
        from repro.engine import store as store_module

        monkeypatch.setattr(store_module, "MEMO_LIMIT", 2)
        jobs = distinct_jobs(12)
        keys = [job_key(job) for job in jobs]
        scheduler = ServiceScheduler(
            ShardedResultStore(tmp_path),
            workers=4,
            execute=lambda group: [
                ("result-for", job_key(job)) for job in group
            ],
            queue_capacity=None,
        )
        errors: list[BaseException] = []

        def tenant(name):
            try:
                for _round in range(3):
                    for start in range(0, len(jobs), 3):
                        scheduler.submit(name, jobs[start:start + 3])
                        scheduler.snapshot(keys)
            except BaseException as error:  # reported by the assert
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with scheduler:
                threads = [
                    threading.Thread(target=tenant, args=(f"t{index}",))
                    for index in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10.0)
                assert not any(thread.is_alive() for thread in threads)
                assert scheduler.wait(keys, timeout=10.0)
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        assert scheduler.stats.executed == len(keys)
        assert all(
            scheduler.result(key) == ("result-for", key) for key in keys
        )
        stats = scheduler.stats
        assert stats.submitted == 4 * 3 * len(jobs) == (
            stats.served_memo + stats.served_store + stats.attached
            + stats.queued
        )

    def test_served_keys_keep_no_results_in_memory(
        self, manual_scheduler, distinct_jobs, tmp_path, monkeypatch
    ):
        """With a store, memory grows by job state only, not results."""
        import gc
        import pathlib
        import tracemalloc

        from repro.engine import store as store_module

        monkeypatch.setattr(store_module, "MEMO_LIMIT", 16)
        warm, measured = 64, 400
        jobs = distinct_jobs(warm + measured)

        def six_kb(group):
            return [
                ("result-for", job_key(job), bytes(6 * 1024))
                for job in group
            ]

        scheduler = manual_scheduler(
            store=ShardedResultStore(tmp_path),
            execute=six_kb,
            queue_capacity=None,
        )

        def serve(batch):
            scheduler.submit("alice", batch)
            while scheduler.run_next():
                pass

        serve(jobs[:warm])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            serve(jobs[warm:])
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        # Left out: the snapshots themselves, and the interpreter's
        # intern table, which pathlib grows by every path part.  That
        # table is sized by the whole process, so a rebuild inside the
        # window would read as megabytes of growth.
        ignore = [
            tracemalloc.Filter(False, tracemalloc.__file__),
            tracemalloc.Filter(False, pathlib.__file__),
        ]
        growth = sum(
            stat.size_diff
            for stat in after.filter_traces(ignore).compare_to(
                before.filter_traces(ignore), "filename"
            )
        )
        assert scheduler.stats.executed == warm + measured
        assert growth / measured < 2048, f"{growth / measured:.0f} B/key"
