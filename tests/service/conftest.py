"""Fixtures for the fleet-service suites: jobs, schedulers, servers.

Scheduler-level tests run with ``workers=0`` and fake executors so the
fairness / quota / backpressure logic is exercised deterministically
and without simulating anything; the end-to-end API tests use real —
but tiny — simulation jobs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine.jobs import SimulationJob, TraceSpec, job_key
from repro.service.requests import JobRequest, resolve
from repro.service.scheduler import ServiceScheduler
from repro.tech.operating import Mode, operating_point_for


@pytest.fixture(scope="session")
def job_maker(chips_a):
    """A factory of distinct (by seed/length) real simulation jobs."""

    def make(seed: int = 0, length: int = 1000, mode=Mode.ULE):
        return SimulationJob(
            chip=chips_a.proposed.config,
            trace=TraceSpec("adpcm_c", length, seed),
            mode=mode,
        )

    return make


@pytest.fixture(scope="session")
def tiny_requests():
    """Ten distinct wire-level requests resolving to fast jobs."""
    return [
        JobRequest(
            benchmark=benchmark, trace_length=1000, seed=seed, mode=mode
        )
        for benchmark in ("adpcm_c", "epic_c")
        for mode in ("ule", "hp")
        for seed in (1, 2)
    ] + [
        JobRequest(benchmark="gsm_c", trace_length=1000, seed=3),
        JobRequest(benchmark="g721_c", trace_length=1000, seed=3),
    ]


@pytest.fixture()
def manual_scheduler():
    """A ``workers=0`` scheduler factory with an instant fake executor.

    Jobs complete only when the test pumps :meth:`run_next`, so queue
    order, quotas and backpressure are observed deterministically.
    """

    def make(execute=None, **kwargs):
        kwargs.setdefault("workers", 0)
        kwargs.setdefault("queue_capacity", 8)
        return ServiceScheduler(
            execute=execute or _stub_results,
            **kwargs,
        )

    return make


def _stub_results(jobs):
    """Tiny, picklable stand-ins for the RunResults of a job group."""
    return [("result-for", job_key(job)) for job in jobs]


@pytest.fixture(scope="session")
def distinct_jobs(chips_a):
    """A factory of ``count`` jobs with pairwise distinct hash keys."""

    def make(count: int) -> list[SimulationJob]:
        jobs = [
            SimulationJob(
                chip=chips_a.proposed.config,
                trace=TraceSpec("adpcm_c", 1000, seed),
                mode=Mode.ULE,
            )
            for seed in range(count)
        ]
        assert len({job_key(job) for job in jobs}) == count
        return jobs

    return make


@pytest.fixture(scope="session")
def same_trace_jobs(chips_a):
    """A factory of ``count`` distinct jobs sharing one trace.

    They differ only in the ULE supply voltage, the shape of a Vdd
    sweep, so the scheduler queues them as one same-trace item.
    """

    def make(count: int) -> list[SimulationJob]:
        nominal = operating_point_for(Mode.ULE)
        jobs = [
            SimulationJob(
                chip=chips_a.proposed.config,
                trace=TraceSpec("adpcm_c", 1000, 0),
                mode=Mode.ULE,
                operating_point=replace(
                    nominal, vdd=nominal.vdd * (1 + index / 100)
                ),
            )
            for index in range(count)
        ]
        assert len({job_key(job) for job in jobs}) == count
        return jobs

    return make


@pytest.fixture(scope="session")
def resolved_requests(tiny_requests):
    """The engine jobs of :data:`tiny_requests`, resolved once."""
    return [resolve(request) for request in tiny_requests]
