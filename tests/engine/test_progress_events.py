"""Progress reporting: ``run_jobs(progress=)`` counts executed jobs.

:meth:`SimulationSession.run_jobs` calls ``progress(done, total)`` once
per executed job, from the driving process, whatever the pool's
completion order.  ``total`` counts only the jobs that actually
execute, after dedup and cache hits.  These tests pin that contract,
serially and with ``jobs=2``.
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine.jobs import SimulationJob, TraceSpec
from repro.engine.session import SimulationSession
from repro.tech.operating import Mode


@pytest.fixture(scope="module")
def batch(chips_a):
    """Six distinct tiny jobs (two traces, three seeds each)."""
    return [
        SimulationJob(
            chip=chips_a.proposed.config,
            trace=TraceSpec(benchmark, 1000, seed),
            mode=Mode.ULE,
        )
        for benchmark in ("adpcm_c", "epic_c")
        for seed in (0, 1, 2)
    ]


def run_collecting(session, jobs):
    counts = []
    results = session.run_jobs(
        jobs, progress=lambda done, total: counts.append((done, total))
    )
    return results, counts


def test_serial_events_name_every_executed_job(batch):
    """One report per executed job, counting 1..N in order."""
    with SimulationSession(jobs=1) as session:
        _, counts = run_collecting(session, batch)
        assert session.stats.executed == len(batch)
    assert counts == [(done, 6) for done in range(1, 7)]


def test_event_payload_sets_match_across_serial_and_parallel(batch):
    """Same batch, same reports and results, serial or ``jobs=2``."""
    with SimulationSession(jobs=1) as serial:
        serial_results, serial_counts = run_collecting(serial, batch)
    with SimulationSession(jobs=2) as parallel:
        parallel_results, parallel_counts = run_collecting(parallel, batch)
    # Results agree bit-for-bit on the metrics (the full pickles are
    # not compared: crossing the pool's process boundary drops interned
    # -string identity sharing, which legitimately shifts pickle bytes).
    assert [
        (r.epi, r.execution_seconds, pickle.dumps(r.timing))
        for r in serial_results
    ] == [
        (r.epi, r.execution_seconds, pickle.dumps(r.timing))
        for r in parallel_results
    ]
    # The driving process counts completions, so ``done`` runs 1..N
    # in both runs however the pool's completion order scrambles.
    assert parallel_counts == serial_counts == [
        (done, 6) for done in range(1, 7)
    ]


def test_cache_hits_emit_no_events(batch):
    with SimulationSession(jobs=1) as session:
        session.run_jobs(batch)
        _, counts = run_collecting(session, batch)
    assert counts == []


def test_duplicate_jobs_counted_once(batch):
    with SimulationSession(jobs=1) as session:
        _, counts = run_collecting(session, batch[:2] + batch[:2])
    assert counts == [(1, 2), (2, 2)]
